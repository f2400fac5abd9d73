(* The leaf library's file helpers, re-exported for the framework and
   the programs that reach them as [Experiment.Util]. *)
include Common.Util
