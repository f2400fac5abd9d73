(* The serve request decoder as it read before the one-pass decoder:
   parse the whole line into a [Common.Json] tree, then look the known
   fields up with [Json.member] (the first of duplicate keys wins).
   Kept as the oracle that [Serve.Wire.parse] must match line for
   line. *)

module Json = Common.Json

let parse line =
  match Json.of_string line with
  | Error e -> Error ("bad json: " ^ e)
  | Ok json -> (
      let id =
        match Json.member "id" json with
        | Some (Json.Int i) -> Some i
        | _ -> None
      in
      match Json.member "op" json with
      | Some (Json.String op) -> (
          match op with
          | "step" -> Ok (id, Serve.Wire.Event Engine.Event.Step)
          | "round" -> Ok (id, Serve.Wire.Event Engine.Event.Round)
          | "insert" -> (
              match Json.member "key" json with
              | Some (Json.Int key) ->
                  Ok (id, Serve.Wire.Event (Engine.Event.Insert key))
              | _ -> Error "insert needs an integer \"key\"")
          | "remove" -> Ok (id, Serve.Wire.Event Engine.Event.Remove)
          | "probe" -> Ok (id, Serve.Wire.Event Engine.Event.Probe)
          | "occupancy" -> Ok (id, Serve.Wire.Event Engine.Event.Occupancy)
          | "watermark" -> Ok (id, Serve.Wire.Event Engine.Event.Watermark)
          | "ping" -> Ok (id, Serve.Wire.Ping)
          | "stats" -> (
              match Json.member "format" json with
              | None | Some (Json.String "json") ->
                  Ok (id, Serve.Wire.Stats Serve.Wire.Stats_json)
              | Some (Json.String "prom") ->
                  Ok (id, Serve.Wire.Stats Serve.Wire.Stats_prom)
              | Some (Json.String f) ->
                  Error
                    (Printf.sprintf "unknown stats format %S (json | prom)" f)
              | Some _ -> Error "stats \"format\" must be a string")
          | op -> Error (Printf.sprintf "unknown op %S" op))
      | _ -> Error "missing \"op\"")
