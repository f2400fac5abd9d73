(* Process and file-system helpers: spawning with a readiness line,
   /proc readers, recursive copy and removal. *)

let now_ns () = Obs.Clock.now_ns ()
let seconds_between a b = Int64.to_float (Int64.sub b a) /. 1e9

(* Read to end of file: /proc files report no length. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        let k = input ic chunk 0 (Bytes.length chunk) in
        if k > 0 then begin
          Buffer.add_subbytes buf chunk 0 k;
          go ()
        end
      in
      go ();
      Buffer.contents buf)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr ic;
      close_out_noerr oc)
    (fun () ->
      let buf = Bytes.create (1 lsl 20) in
      let rec go () =
        let k = input ic buf 0 (Bytes.length buf) in
        if k > 0 then begin
          output oc buf 0 k;
          go ()
        end
      in
      go ())

(* A fresh copy of a flat directory. *)
let copy_dir src dst =
  rm_rf dst;
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f -> copy_file (Filename.concat src f) (Filename.concat dst f))
    (Sys.readdir src)

(* Fields of /proc/PID/stat after the parenthesised command name. *)
let stat_fields pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let close = String.rindex s ')' in
  String.sub s (close + 2) (String.length s - close - 2)
  |> String.split_on_char ' '
  |> Array.of_list

(* utime + stime in seconds; USER_HZ is 100 on Linux. *)
let cpu_seconds pid =
  let f = stat_fields pid in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
    (fun kb -> float_of_int kb /. 1024.)

(* Steal and total ticks of all CPUs (first line of /proc/stat): the
   time the host kept the virtual CPUs from running. *)
let cpu_ticks () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  let ticks =
    List.filter_map int_of_string_opt (List.tl (String.split_on_char ' ' line))
  in
  (List.nth ticks 7, List.fold_left ( + ) 0 ticks)

let steal_note (s0, t0) =
  let s1, t1 = cpu_ticks () in
  Printf.sprintf "host steal: %.1f%% of CPU time during the window"
    (100. *. float_of_int (s1 - s0) /. float_of_int (max 1 (t1 - t0)))

let self_cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A child whose stdout is a pipe: [spawn] returns once the child has
   written its first line, which is its readiness signal.  The elapsed
   time from just before the exec to the read of that line is the
   child's set-up time. *)
type child = { pid : int; out : in_channel; setup_s : float; ready : string }

let spawn ?(env = Unix.environment ()) ?stderr prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    match stderr with
    | None -> Unix.stderr
    | Some path ->
        Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  let t0 = now_ns () in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) env Unix.stdin
      w err
  in
  Unix.close w;
  if stderr <> None then Unix.close err;
  let out = Unix.in_channel_of_descr r in
  match input_line out with
  | ready -> { pid; out; setup_s = seconds_between t0 (now_ns ()); ready }
  | exception End_of_file ->
      close_in_noerr out;
      ignore (Unix.waitpid [] pid);
      failwith (Printf.sprintf "%s exited before it was ready" prog)

let wait c =
  let _, status = Unix.waitpid [] c.pid in
  close_in_noerr c.out;
  status

let stop ?(signal = Sys.sigterm) c =
  (try Unix.kill c.pid signal with Unix.Unix_error _ -> ());
  wait c

(* Totals the OCaml runtime prints at exit under OCAMLRUNPARAM=v=0x400. *)
let gc_totals text =
  List.filter_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i -> (
          let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
          match float_of_string_opt v with
          | Some x -> Some (String.sub l 0 i, x)
          | None -> None)
      | None -> None)
    (String.split_on_char '\n' text)

let gc_env () =
  let env =
    List.filter
      (fun kv -> not (String.length kv >= 15 && String.sub kv 0 15 = "OCAMLRUNPARAM="))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list ("OCAMLRUNPARAM=v=0x400" :: env)
