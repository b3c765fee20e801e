(* The open-loop traffic schedule, as a pure function of the seed.

   A run is a list of phases, each offering sessions at a nominal rate for
   a fixed time.  A phase's arrivals are a Poisson process conditioned on
   its count: [round (rate * duration)] instants drawn uniformly over the
   phase and sorted — the exact conditional law of a Poisson process given
   how many arrivals it made.  Conditioning fixes the session count (so the
   question total and the sample counts are the same at every seed) while
   keeping the bursty, independent arrivals that pile work up on a slow
   server.

   Within a session, each answer is due a think time after the previous
   response: exponential with mean [think_mean], capped at five means,
   keyed by (seed, session, step) so it never depends on how fast the
   server replied. *)

type phase = { label : string; rate : float; duration : float }

type arrival = {
  a_index : int;  (** session number, in arrival order *)
  a_phase : int;  (** index into the phase list *)
  a_at : float;  (** seconds after the run starts *)
}

let count ph = max 1 (int_of_float (Float.round (ph.rate *. ph.duration)))

let phase_starts phases =
  let _, starts =
    List.fold_left
      (fun (t, acc) ph -> (t +. ph.duration, t :: acc))
      (0., []) phases
  in
  List.rev starts

let arrivals ~seed phases =
  let g = Core.Prng.create (seed lxor 0x5eed_a11) in
  let per_phase =
    List.mapi
      (fun pi (ph, start) ->
        let ts = Array.init (count ph) (fun _ -> Core.Prng.float g ph.duration) in
        Array.sort Float.compare ts;
        Array.to_list (Array.map (fun t -> (pi, start +. t)) ts))
      (List.combine phases (phase_starts phases))
  in
  List.concat per_phase
  |> List.mapi (fun i (pi, at) -> { a_index = i; a_phase = pi; a_at = at })

let think ~seed ~think_mean ~session ~step =
  let g = Core.Prng.create (Hashtbl.hash (seed, session, step, "think")) in
  let u = Core.Prng.float g 1.0 in
  Float.min (5. *. think_mean) (-.think_mean *. log (1. -. u))
