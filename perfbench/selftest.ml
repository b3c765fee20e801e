(* Self-tests of the generator and the statistics, run before every serve
   run (and alone with --selftest).  They take well under a second. *)

let failures = ref []

let check name ok =
  if not ok then begin
    failures := name :: !failures;
    Out.log "selftest FAILED: %s" name
  end

(* The arrival and think-time schedule is a pure function of the seed. *)
let schedule () =
  let phases =
    [
      { Sched.label = "a"; rate = 5.; duration = 2. };
      { Sched.label = "b"; rate = 9.; duration = 1.5 };
    ]
  in
  let a1 = Sched.arrivals ~seed:7 phases and a2 = Sched.arrivals ~seed:7 phases in
  check "same seed, same arrivals" (a1 = a2);
  check "other seed, other arrivals" (a1 <> Sched.arrivals ~seed:8 phases);
  check "arrival count fixed per phase"
    (List.length a1 = Sched.count (List.nth phases 0) + Sched.count (List.nth phases 1));
  let sorted = List.map (fun (a : Sched.arrival) -> a.a_at) a1 in
  check "arrivals in order" (sorted = List.sort compare sorted);
  check "arrivals inside their phase"
    (List.for_all
       (fun (a : Sched.arrival) ->
         if a.a_phase = 0 then a.a_at >= 0. && a.a_at < 2.
         else a.a_at >= 2. && a.a_at < 3.5)
       a1);
  let think s k = Sched.think ~seed:7 ~think_mean:0.05 ~session:s ~step:k in
  check "same seed, same think times"
    (List.init 50 (fun k -> think 3 k) = List.init 50 (fun k -> think 3 k));
  check "think times bounded and positive"
    (List.for_all (fun k -> think 4 k >= 0. && think 4 k <= 0.25) (List.init 200 Fun.id))

let task_count () =
  match Sys.readdir "/proc/self/task" with
  | a -> Array.length a
  | exception Sys_error _ -> 0

(* No more than [conns] connections, threads or requests in flight. *)
let bounds () =
  (* Start the runtime's tick thread before taking the baseline. *)
  Thread.join (Thread.create ignore ());
  let base = task_count () in
  let mu = Mutex.create () in
  let open_ = ref 0 and inflight = ref 0 and peak_inflight = ref 0 in
  let peak_tasks = ref 0 in
  let connect () = Mutex.protect mu (fun () -> incr open_) in
  let close () = Mutex.protect mu (fun () -> decr open_) in
  let step () _trace n =
    Mutex.protect mu (fun () ->
        incr inflight;
        peak_inflight := max !peak_inflight !inflight;
        peak_tasks := max !peak_tasks (task_count ()));
    Thread.delay 0.002;
    Mutex.protect mu (fun () -> decr inflight);
    if n > 0 then Gen.Continue { think = 0.; next = n - 1 } else Gen.Finished
  in
  let r =
    Gen.run ~conns:2 ~connect ~close ~route:(fun _ -> "x")
      ~trace:(fun _ _ -> "") ~step
      (List.init 12 (fun i -> (i, 0.001 *. float_of_int i, 3)))
  in
  check "every request completed" (List.length r.samples = 48);
  check "at most 2 connections" (r.peak_conns <= 2);
  check "connections closed" (!open_ = 0);
  check "at most 2 threads sent requests" (r.threads <= 2);
  check "at most 2 requests in flight" (!peak_inflight <= 2);
  check "one thread beyond the caller" (!peak_tasks <= base + 1)

(* With both connections busy, a due request waits — and its latency is
   charged from the due time, not from the send. *)
let due_time () =
  let service = 0.05 in
  let step () _ () =
    Thread.delay service;
    Gen.Finished
  in
  let r =
    Gen.run ~conns:2 ~connect:ignore ~close:ignore ~route:(fun _ -> "x")
      ~trace:(fun _ _ -> "") ~step
      (List.init 3 (fun i -> (i, 0., ())))
  in
  let lat = List.map (fun (s : Gen.sample) -> s.s_resp -. s.s_due) r.samples in
  let late = List.filter (fun (s : Gen.sample) -> s.s_send -. s.s_due >= 0.9 *. service) r.samples in
  check "third request waited for a connection" (List.length late = 1);
  check "its latency counts the wait"
    (List.exists (fun l -> l >= 1.9 *. service) lat);
  check "lag reported" (r.lag_max >= 0.9 *. service)

(* The tail keeps at least ten samples beyond it. *)
let tail_rule () =
  check "no tail below 11 samples" (Stats.tail_rank 10 = None);
  check "ten samples beyond the tail"
    (List.for_all
       (fun n ->
         match Stats.tail_rank n with
         | Some r -> n - 1 - r = Stats.beyond
         | None -> false)
       [ 11; 12; 100; 1000; 5003 ]);
  check "tail value is the 11th largest"
    (Stats.tail (List.init 500 (fun i -> float_of_int (i + 1))) = 490.)

let run () =
  failures := [];
  schedule ();
  bounds ();
  due_time ();
  tail_rule ();
  if !failures = [] then Out.log "selftest: ok";
  !failures = []
