type 'state t = {
  step : Prng.Rng.t -> 'state -> 'state -> 'state * 'state;
  equal : 'state -> 'state -> bool;
  distance : 'state -> 'state -> int;
}

let make ~step ~equal ~distance = { step; equal; distance }

(* Each joint step derives one fresh substream and replays it into both
   copies.  Splitting (rather than copying the main generator) keeps the
   two marginal chains exact even when the copies consume different
   numbers of random draws (e.g. ADAP probing further in one copy). *)
let of_identity ~chain_step ~equal ~distance =
  let step g x y =
    let shared = Prng.Rng.split g in
    let replay = Prng.Rng.copy shared in
    let x' = chain_step shared x in
    let y' = chain_step replay y in
    (x', y')
  in
  { step; equal; distance }

(* The probe is the coalescence indicator: [equal] exits at the first
   difference, while the coupling metric would cost a full O(n) pass on
   every step for a value the coalescence drivers only test against 0.
   Callers that trace the distance call [distance] themselves. *)
let sim ?metrics ?(copy = fun s -> s) c ~x ~y =
  let metrics =
    match metrics with Some m -> m | None -> Engine.Metrics.create ()
  in
  let x = ref x and y = ref y in
  Engine.Sim.make ~metrics ~watermark:false
    ~step:(fun g ->
      let x', y' = c.step g !x !y in
      x := x';
      y := y')
    ~observe:(fun () -> (copy !x, copy !y))
    ~reset:(fun (a, b) ->
      x := copy a;
      y := copy b)
    ~probe:(fun () -> if c.equal !x !y then 0 else 1)
    ()
