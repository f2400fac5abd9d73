(* The typed event vocabulary of the engine.

   A simulation step loop and a long-running allocation service are the
   same state machine driven differently: the rep loops feed it [Step]
   events as fast as possible, a server feeds it whatever mix of
   mutations and queries its clients produce.  Every process state
   machine in the repository answers this vocabulary through
   {!Sim.apply}; events a machine does not support come back
   [Rejected]. *)

type t =
  | Step  (* one full process transition (remove + insert) *)
  | Round  (* one synchronous round of a round-parallel process *)
  | Insert of int  (* place one new ball; the payload is a routing key *)
  | Remove  (* remove one ball per the machine's scenario *)
  | Probe  (* cheap scalar observable (max load, unfairness, ...) *)
  | Occupancy  (* full per-bin load snapshot *)
  | Watermark  (* highest probe level ever seen *)

type reply =
  | Ack  (* mutation applied, no payload *)
  | Placed of int  (* insert: the bin that received the ball *)
  | Removed of int  (* remove: the bin that lost the ball *)
  | Level of int  (* probe / watermark *)
  | Loads of int array  (* occupancy *)
  | Rejected of string  (* unsupported event or empty-state mutation *)

let name = function
  | Step -> "step"
  | Round -> "round"
  | Insert _ -> "insert"
  | Remove -> "remove"
  | Probe -> "probe"
  | Occupancy -> "occupancy"
  | Watermark -> "watermark"

(* Mutations advance the machine state and therefore belong in a replay
   journal; queries are pure reads. *)
let is_mutation = function
  | Step | Round | Insert _ | Remove -> true
  | Probe | Occupancy | Watermark -> false

let reply_name = function
  | Ack -> "ack"
  | Placed _ -> "placed"
  | Removed _ -> "removed"
  | Level _ -> "level"
  | Loads _ -> "loads"
  | Rejected _ -> "rejected"

let reply_ok = function Rejected _ -> false | _ -> true
