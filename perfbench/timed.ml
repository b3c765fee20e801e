(* A timing wrapper over an engine's public [Core.Interact.SESSION].

   Used only in traced runs: it adds two clock reads per session call,
   which is noise on a join determined probe (~100 ns), so timed runs use
   the engines' own modules.  The wrapped session is run through
   [Core.Interact.Make] (CLI) or [Server.Stepper.Make] (serve replay), the
   same functors the program applies, so the engine does the same work in
   the same order.

   A "scan" is the run of [determined] calls between two [record]s — one
   partition round of the interaction loop — and [max_scan] is the longest
   one seen. *)

type counters = {
  mutable init_s : float;
  mutable record_s : float;
  mutable determined_s : float;
  mutable determined_calls : int;
  mutable candidate_s : float;
  mutable scan_s : float;  (** the scan in progress *)
  mutable max_scan_s : float;
}

let fresh () =
  {
    init_s = 0.;
    record_s = 0.;
    determined_s = 0.;
    determined_calls = 0;
    candidate_s = 0.;
    scan_s = 0.;
    max_scan_s = 0.;
  }

let reset c =
  c.init_s <- 0.;
  c.record_s <- 0.;
  c.determined_s <- 0.;
  c.determined_calls <- 0;
  c.candidate_s <- 0.;
  c.scan_s <- 0.;
  c.max_scan_s <- 0.

let session_calls_s c = c.init_s +. c.record_s +. c.determined_s +. c.candidate_s

(* The five per-layer metrics of one engine, named [prefix.*]; [pruned] and
   [asked] are summed over the engine's sessions. *)
let metrics prefix c ~pruned ~asked =
  let ms s = s *. 1e3 in
  Out.
    [
      m (prefix ^ ".determined_ms") "ms" (ms c.determined_s);
      count (prefix ^ ".determined_calls") c.determined_calls;
      m (prefix ^ ".record_ms") "ms" (ms c.record_s);
      m (prefix ^ ".max_scan_ms") "ms" (ms c.max_scan_s);
      m (prefix ^ ".prune_ratio") "ratio"
        (float_of_int pruned /. float_of_int (max 1 (pruned + asked)));
    ]

let now = Core.Monotonic.now

module Make (S : Core.Interact.SESSION) (C : sig
  val c : counters
end) =
struct
  type query = S.query
  type item = S.item
  type state = S.state

  let c = C.c

  let end_scan () =
    c.max_scan_s <- Float.max c.max_scan_s c.scan_s;
    c.scan_s <- 0.

  let init items =
    let t0 = now () in
    let st = S.init items in
    c.init_s <- c.init_s +. (now () -. t0);
    st

  let record st item label =
    end_scan ();
    let t0 = now () in
    let st = S.record st item label in
    c.record_s <- c.record_s +. (now () -. t0);
    st

  let determined st item =
    let t0 = now () in
    let r = S.determined st item in
    let dt = now () -. t0 in
    c.determined_s <- c.determined_s +. dt;
    c.scan_s <- c.scan_s +. dt;
    c.determined_calls <- c.determined_calls + 1;
    r

  let candidate st =
    end_scan ();
    let t0 = now () in
    let q = S.candidate st in
    c.candidate_s <- c.candidate_s +. (now () -. t0);
    q

  let pp_item = S.pp_item
  let pp_query = S.pp_query
end
