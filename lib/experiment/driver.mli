(** Orchestration: selection, execution, sinks.

    The stdout stream (banner, headings, aligned tables) is
    byte-identical to the pre-framework harness in default mode; the
    JSON document adds the machine-readable view. *)

val results_file : string
(** ["BENCH_RESULTS.json"]. *)

type selection_error =
  | Unknown_ids of string list
  | Unknown_tags of string list
  | Empty_selection

val selection_error_message : Spec.t list -> selection_error -> string

val select :
  Spec.t list ->
  ids:string list ->
  tags:string list ->
  (Spec.t list, selection_error) result
(** Resolve [ids] (in the order given; [[]] means every spec with
    [default = true]) and then keep only specs carrying at least one of
    [tags] ([[]] keeps all).  Tags absent from every spec are an
    [Unknown_tags] error; valid tags that merely match nothing in the
    id-selected base are [Empty_selection]. *)

val print_list : ?verbose:bool -> Spec.t list -> unit
(** One line per spec: id, claim, tags.  With [~verbose:true], an extra
    line per spec shows the grid axis with the quick and full cell
    counts, sizes and replication counts. *)

val run : ?banner:bool -> config:Config.t -> Spec.t list -> Json.t
(** Run the specs in order: banner (unless [~banner:false]), per-spec
    heading and body, then the JSON results document — returned, and
    also written to [config.json_dir]/[results_file] when that is set.
    When [config.trace] is set, tracing ({!Obs.enable}) is switched on
    before the first spec and the merged trace is written there after
    the last. *)

val deterministic_view : Json.t -> Json.t
(** The document with its wall-clock times ([wall_seconds],
    [phase_seconds]) and the ["domains"] provenance field stripped: two
    runs with the same seed must agree on this view regardless of domain
    count or machine speed. *)
