(* The leaf library's JSON codec, re-exported for the framework and the
   programs that reach it as [Experiment.Json]. *)
include Common.Json
