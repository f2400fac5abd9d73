(* Benchmark harness: regenerates every experiment table of DESIGN.md /
   EXPERIMENTS.md through the declarative experiment framework
   (lib/experiment).  The command line is Cli's, shared with
   `repro bench`.

     dune exec bench/main.exe                      # default specs, quick sizes
     dune exec bench/main.exe -- e1 e8             # a subset
     dune exec bench/main.exe -- micro             # Bechamel per-step costs
     dune exec bench/main.exe -- --list            # ids and claims
     dune exec bench/main.exe -- --full            # paper-scale sweeps
     dune exec bench/main.exe -- --tags recovery   # select by tag
     dune exec bench/main.exe -- e1 --json out/    # + BENCH_RESULTS.json
     dune exec bench/main.exe -- --help            # every flag and variable *)

let () =
  exit (Cmdliner.Cmd.eval ~env:Experiments.Cli.env Experiments.Cli.cmd)
