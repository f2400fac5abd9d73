(** JSON-lines protocol of the allocation service.

    One request object per line; replies come back one line each, in
    request order, with an optional client-chosen ["id"] echoed.  See
    the implementation header for the full vocabulary — the event ops
    mirror {!Engine.Event} ([step], [insert], [remove], [probe],
    [occupancy], [watermark]) plus [ping] and [stats] (the telemetry
    report, structured JSON or, with ["format":"prom"], a Prometheus
    text exposition).

    The decoder reads a line in one pass without building a JSON tree;
    the encoders write each reply as a constant prefix plus digits. *)

(** Where a service listens (or a client connects). *)
type address = Unix_sock of string | Tcp of string * int

val address_to_string : address -> string

val parse_address : string -> (address, string) result
(** Accepts [unix:PATH] and [tcp:HOST:PORT] ([tcp::PORT] means
    127.0.0.1). *)

type stats_format = Stats_json | Stats_prom

type request =
  | Event of Engine.Event.t
  | Ping
  | Stats of stats_format
      (** The [stats] op: the telemetry report, structured JSON by
          default or Prometheus text with ["format":"prom"]. *)

val decode : Bytes.t -> int -> int -> (int option * request, string) result
(** [decode b off len] decodes the request line held in bytes
    [off .. off + len - 1] into its optional id and payload, where they
    lie.  It accepts what {!Common.Json.of_string} accepts and reads the
    fields as [Json.member] would (the first of duplicate keys wins;
    ["id"], ["key"] are integers as [int_of_string_opt] reads them),
    with one limit: objects and arrays nest at most 64 deep.  Malformed
    JSON gives [Error "bad json: <what> at offset <n>"], [n] counted
    from [off].  A line without ["id"] whose op carries no payload (all
    but insert) decodes without allocating. *)

val parse : string -> (int option * request, string) result
(** {!decode} over a whole string. *)

(** {2 Response formatting}

    All formatters append one newline-terminated JSON line to the
    caller's buffer. *)

val add_reply : Buffer.t -> id:int option -> Engine.Event.reply -> unit
val add_pong : Buffer.t -> id:int option -> unit
val add_error : Buffer.t -> id:int option -> string -> unit

val add_stats :
  Buffer.t -> id:int option -> (string * Common.Json.t) list -> unit
(** The [stats] reply with the report spliced in as top-level fields. *)

val add_stats_text : Buffer.t -> id:int option -> string -> unit
(** The [stats] reply carrying a text exposition escaped into the
    ["text"] field, tagged ["format":"prom"]. *)
