(* Runs the serve-mix and serve-evict workloads and turns their passes into
   a result. *)

module Json = Server.Json

let ring_per_slot = 100_000
let spawns = 5

(* Start-up spawns are drained once the server has been up this long:
   SIGTERM within milliseconds of start-up can hang the drain (a lost
   wake-up in the dispatcher; see perfbench/README.md). *)
let settle_s = 0.3

type pass = {
  cfg : Serve.config;
  phases : Sched.phase list;
  gen : Gen.result;
  sessions : Serve.sess list;
  setup : float list;
  drain_codes : int list;
  stats : Json.t option;
  cpu_s : float;  (** server CPU over the generator run *)
  hwm_mb : float;  (** server VmHWM when the steady phase ends *)
  gc : float option * float option * float option;
  flight : Flight.t option;
  flags : string list;
}

let now = Core.Monotonic.now

(* Set-up is measured [spawns] times: each spawn is timed to its first
   healthy /healthz; all but the last are drained straight away. *)
let spawn_servers ~tag ~flags =
  let rec go n setups codes =
    let srv = Server_proc.start ~tag ~flags in
    let setups = srv.Server_proc.setup_s :: setups in
    if n <= 1 then (srv, List.rev setups, codes)
    else begin
      Thread.delay settle_s;
      let code = Server_proc.stop srv in
      Server_proc.cleanup srv;
      go (n - 1) setups (code :: codes)
    end
  in
  go spawns [] []

let pass (cfg : Serve.config) ~seed ~seconds ~traced =
  let phases = Serve.phases cfg ~seconds in
  let arrivals = Sched.arrivals ~seed phases in
  let sessions = Serve.sessions cfg ~seed arrivals in
  let flags =
    cfg.flags
    @
    if traced then
      [ "--flight-recorder-size"; string_of_int (8 * ring_per_slot) ]
    else []
  in
  let srv, setup, codes = spawn_servers ~tag:cfg.name ~flags in
  Fun.protect
    ~finally:(fun () -> Server_proc.cleanup srv)
    (fun () ->
      let cpu0 = Server_proc.cpu_s srv in
      let hwm_mb = ref nan in
      let gen =
        Gen.run
          ~mark:
            ( (List.hd phases).Sched.duration,
              fun () -> hwm_mb := Server_proc.hwm_mb srv )
          ~conns:2
          ~connect:(fun () ->
            match Server.Client.connect ~host:"127.0.0.1" ~port:srv.port with
            | Ok c -> c
            | Error e -> failwith ("perfbench: connect: " ^ e))
          ~close:Server.Client.close ~route:Serve.route
          ~trace:(fun i job ->
            if traced then
              Printf.sprintf "pb%d-%d" i (Serve.session_of job).Serve.steps
            else "")
          ~step:(Serve.step ~seed)
          (List.map2
             (fun (a : Sched.arrival) s -> (a.a_index, a.a_at, Serve.Create s))
             arrivals sessions)
      in
      let cpu1 = Server_proc.cpu_s srv in
      let stats = Server_proc.stats srv in
      let flight =
        if traced then
          match Server_proc.get srv "/debug/flightrecorder" with
          | Ok (200, j) -> Some (Flight.analyse j)
          | _ -> None
        else None
      in
      let code = Server_proc.stop srv in
      let gc = Server_proc.gc_exit_stats srv in
      {
        cfg;
        phases;
        gen;
        sessions;
        setup;
        drain_codes = List.rev (code :: codes);
        stats;
        cpu_s =
          (match (cpu0, cpu1) with Some a, Some b -> b -. a | _ -> nan);
        hwm_mb = !hwm_mb;
        gc;
        flight;
        flags;
      })

(* ------------------------------------------------------------------ *)
(* End-to-end figures                                                  *)
(* ------------------------------------------------------------------ *)

let ms s = s *. 1e3
let latency_ms (s : Gen.sample) = ms (s.s_resp -. s.s_due)

(* Phase windows, as absolute [start, end) times. *)
let windows p =
  let starts = Sched.phase_starts p.phases in
  List.map2
    (fun (ph : Sched.phase) st -> (p.gen.t0 +. st, p.gen.t0 +. st +. ph.duration))
    p.phases starts

let in_window (a, b) (s : Gen.sample) = s.s_due >= a && s.s_due < b

let steady_samples p =
  List.filter (in_window (List.hd (windows p))) p.gen.samples

let by_route r = List.filter (fun (s : Gen.sample) -> s.s_route = r)

type rung = {
  rate : float;
  n : int;  (** requests of the rung's sessions *)
  p50_ms : float;
  p90_ms : float;
  tail_ms : float;
  score : float;  (** > 1 misses the limit *)
}

(* Each rung is judged by the sessions that arrived in it: the p90 of the
   latencies, from due, of their creates and answers.  Creates are due at
   fixed arrival instants, so when sessions arrive faster than the server
   clears them the creates wait longer and longer — a growing backlog
   shows in their latency.  The p90 has a tenth of a rung's requests
   beyond it; the 11th-largest sample of a 3-second rung rests on a
   handful of twig steps and moves by half from run to run. *)
let rungs p =
  let limit = p.cfg.tail_limit_ms in
  List.mapi
    (fun i (ph : Sched.phase) ->
      let ids = Hashtbl.create 64 in
      List.iter
        (fun (s : Serve.sess) ->
          if s.phase = i + 1 then Hashtbl.replace ids s.idx ())
        p.sessions;
      let lats =
        List.filter_map
          (fun (s : Gen.sample) ->
            if Hashtbl.mem ids s.s_session && s.s_route <> "delete" then
              Some (latency_ms s)
            else None)
          p.gen.samples
      in
      let tail = Stats.tail lats in
      let a = Stats.sorted lats in
      {
        rate = ph.rate;
        n = List.length lats;
        p50_ms = Stats.quantile_sorted a 0.5;
        p90_ms = Stats.quantile_sorted a 0.9;
        tail_ms = tail;
        score = Stats.quantile_sorted a 0.9 /. limit;
      })
    (List.tl p.phases)

(* The highest rate meeting the limit, interpolated in log(score) between
   the last rung that meets it and the first that does not; proportional
   extrapolation when every rung falls on one side. *)
let knee rs =
  let rec go prev = function
    | [] -> (
        match prev with Some r -> r.rate /. r.score | None -> nan)
    | r :: rest ->
        if r.score <= 1. then go (Some r) rest
        else (
          match prev with
          | None -> r.rate /. r.score
          | Some pr ->
              let x = log pr.score and y = log r.score in
              pr.rate +. ((r.rate -. pr.rate) *. (0. -. x) /. (y -. x)))
  in
  go None rs

let end_to_end p ~replay_s =
  let steady = steady_samples p in
  let lat r = List.map latency_ms (by_route r steady) in
  let all = List.map latency_ms steady in
  let sess e =
    Stats.median (List.filter_map (fun (en, t) -> if en = e then Some t else None) replay_s)
  in
  let questions =
    List.fold_left
      (fun n (s : Serve.sess) ->
        n + match s.final with Some (_, q) -> q | None -> 0)
      0 p.sessions
  in
  Out.
    [
      m "setup_s" "s" (Stats.median p.setup);
      m "twig_session_s" "s" (sess "twig");
      m "join_session_s" "s" (sess "join");
      m "path_session_s" "s" (sess "path");
      count "questions" questions;
      m "wait_ms_p50" "ms" (Stats.median all);
      m "wait_ms_tail" "ms" (Stats.tail all);
      m "answer_ms_p50" "ms" (Stats.median (lat "answer"));
      m "answer_ms_tail" "ms" (Stats.tail (lat "answer"));
      m "create_ms_p50" "ms" (Stats.median (lat "create"));
      m "create_ms_tail" "ms" (Stats.tail (lat "create"));
      m "knee_sessions_per_s" "1/s" (knee (rungs p));
      m "peak_rss_mb" "MB" p.hwm_mb;
    ]

(* ------------------------------------------------------------------ *)
(* Per-layer figures from the traced pass                              *)
(* ------------------------------------------------------------------ *)

type stage = {
  st_sample : Gen.sample;
  client_q : float;  (** due to send: both connections busy *)
  mux_io : float;
  admission : float;
  stepper : float;
  fsync : float;
  fsyncs : int;
}

let stages p (fl : Flight.t) =
  List.filter_map
    (fun (s : Gen.sample) ->
      match Hashtbl.find_opt fl.reqs s.s_trace with
      | Some { r_http = Some http; r_job = Some job; r_fsync; r_fsyncs; _ } ->
          Some
            {
              st_sample = s;
              client_q = ms (s.s_send -. s.s_due);
              mux_io = ms (s.s_resp -. s.s_send) -. http;
              admission = http -. job;
              stepper = job -. r_fsync;
              fsync = r_fsync;
              fsyncs = r_fsyncs;
            }
      | _ -> None)
    p.gen.samples

let stage_table ~title sts =
  let col name f =
    let xs = List.map f sts in
    (name, Stats.median xs, Stats.tail xs)
  in
  let rows =
    [
      col "end to end (from due)" (fun st -> latency_ms st.st_sample);
      col "generator queue" (fun st -> st.client_q);
      col "mux io" (fun st -> st.mux_io);
      col "admission wait" (fun st -> st.admission);
      col "stepper job" (fun st -> st.stepper);
      col "journal fsync" (fun st -> st.fsync);
    ]
  in
  Out.log "  %s (%d requests; tail = %d samples beyond)" title (List.length sts)
    Stats.beyond;
  Out.log "    %-24s %10s %10s" "stage" "p50 ms" "tail ms";
  List.iter (fun (n, a, b) -> Out.log "    %-24s %10.3f %10.3f" n a b) rows;
  (* Attribution: average each stage over the requests at or beyond the
     end-to-end tail.  Time spent in the generator queue is time a request
     waited for a connection held by another, slower request, so the tail
     is attributed among the server-side stages. *)
  let cut = Stats.tail (List.map (fun st -> latency_ms st.st_sample) sts) in
  let tail_reqs = List.filter (fun st -> latency_ms st.st_sample >= cut) sts in
  let avg f = Stats.mean (List.map f tail_reqs) in
  let server =
    [
      ("mux io", avg (fun st -> st.mux_io));
      ("admission wait", avg (fun st -> st.admission));
      ("stepper job", avg (fun st -> st.stepper));
      ("journal fsync", avg (fun st -> st.fsync));
    ]
  in
  let top =
    List.fold_left
      (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
      ("none", neg_infinity) server
  in
  Out.log "    tail requests (%d, >= %.3f ms), mean per stage: generator queue %.3f, %s"
    (List.length tail_reqs) cut
    (avg (fun st -> st.client_q))
    (String.concat ", "
       (List.map (fun (n, v) -> Printf.sprintf "%s %.3f" n v) server));
  Out.log "    server-side tail attributed to: %s" (fst top);
  fst top

let prefix_layer name c sessions =
  let pruned, asked =
    List.fold_left (fun (p, a) (pr, q) -> (p + pr, a + q)) (0, 0) sessions
  in
  Timed.metrics name c ~pruned ~asked

let per_layer p (fl : Flight.t) ~pruned =
  let sts = stages p fl in
  let answers = by_route "answer" p.gen.samples in
  let n_answers = List.length answers in
  let f g = List.map g sts in
  let stat name g =
    Out.[ m (name ^ "_p50") "ms" (Stats.median (f g)); m (name ^ "_tail") "ms" (Stats.tail (f g)) ]
  in
  let stat_int k =
    match p.stats with
    | Some j -> Option.value ~default:0 (Json.get_int k j)
    | None -> 0
  in
  (* Answers to sessions evicted since their previous request: an
     eviction event for the session falls between the previous request's
     http.request end and this one's begin (both on the recorder clock). *)
  let prev_end = Hashtbl.create 64 in
  let resumed_answers =
    List.sort
      (fun (a : Gen.sample) b -> compare a.s_send b.s_send)
      p.gen.samples
    |> List.filter_map (fun (s : Gen.sample) ->
           match Hashtbl.find_opt fl.reqs s.s_trace with
           | None -> None
           | Some r ->
               let id = (List.find (fun (x : Serve.sess) -> x.idx = s.s_session) p.sessions).id in
               let prev = Hashtbl.find_opt prev_end s.s_session in
               Hashtbl.replace prev_end s.s_session r.r_http_e;
               match prev with
               | Some pe
                 when s.s_route = "answer"
                      && List.exists
                           (fun (k, ts) ->
                             String.ends_with ~suffix:("/" ^ id) k
                             && ts > pe && ts < r.r_http_b)
                           fl.evictions ->
                   Some (latency_ms s)
               | _ -> None)
  in
  let minor, major, top = p.gc in
  let opt = Option.value ~default:0. in
  let engine e = List.filter_map (fun (en, pr, q) -> if en = e then Some (pr, q) else None) pruned in
  prefix_layer "twiglearn" Serve.twig_c (engine "twig")
  @ prefix_layer "joinlearn" Serve.join_c (engine "join")
  @ prefix_layer "pathlearn" Serve.path_c (engine "path")
  @ stat "mux.io_ms" (fun st -> st.mux_io)
  @ stat "admission.wait_ms" (fun st -> st.admission)
  @ stat "stepper.job_ms" (fun st -> st.stepper)
  @ Out.
      [
        m "journal.fsync_ms_p50" "ms" (Stats.median fl.fsync_ms);
        m "journal.fsync_ms_tail" "ms" (Stats.tail fl.fsync_ms);
        m "journal.fsyncs_per_answer" "ratio"
          (float_of_int (List.length fl.fsync_ms) /. float_of_int (max 1 n_answers));
        count "journal.compactions" fl.compactions;
        count "registry.evicted" (stat_int "evicted");
        count "registry.resumed" (stat_int "resumed");
        m "registry.resume_answer_ms_p50" "ms"
          (match resumed_answers with [] -> 0. | xs -> Stats.median xs);
        m "server.cpu_ms_per_answer" "ms" (ms p.cpu_s /. float_of_int (max 1 n_answers));
        m "gc.minor_collections" "count" (opt minor);
        m "gc.major_collections" "count" (opt major);
        m "gc.top_heap_mb" "MB"
          (opt top *. float_of_int (Sys.word_size / 8) /. 1048576.);
        m "generator.lag_ms_max" "ms" (ms p.gen.lag_max);
      ]

(* ------------------------------------------------------------------ *)
(* Checks and report                                                   *)
(* ------------------------------------------------------------------ *)

let report p =
  let rs = rungs p in
  let steady = steady_samples p in
  Out.log "%s: %d sessions, %d requests, steady %g/s for %.1fs; lag max %.2f ms"
    p.cfg.name (List.length p.sessions) (List.length p.gen.samples)
    p.cfg.steady_rate (List.hd p.phases).duration (ms p.gen.lag_max);
  Out.log "  steady answers: n=%d tail level=%.4f; generator lag p50 %.3f ms"
    (List.length (by_route "answer" steady))
    (Stats.tail_level (List.length (by_route "answer" steady)))
    (Stats.median (List.map (fun (s : Gen.sample) -> ms (s.s_send -. s.s_due)) steady));
  List.iter
    (fun r ->
      Out.log "  rung %5.1f/s: requests=%d p50=%.2f p90=%.1f tail=%.1f ms score=%.3f"
        r.rate r.n r.p50_ms r.p90_ms r.tail_ms r.score)
    rs;
  Out.log "  knee (limit %.0f ms on the rung p90): %.3f sessions/s"
    p.cfg.tail_limit_ms (knee rs);
  let engine_of i =
    match List.find_opt (fun (s : Serve.sess) -> s.idx = i) p.sessions with
    | Some s -> s.spec.engine
    | None -> "?"
  in
  let slow =
    List.sort
      (fun a b -> compare (latency_ms b) (latency_ms a))
      (by_route "answer" steady)
  in
  Out.log "  slowest steady answers: %s"
    (String.concat ", "
       (List.filteri (fun i _ -> i < 12) slow
       |> List.map (fun (s : Gen.sample) ->
              Printf.sprintf "%s %.0f (q %.0f, svc %.0f)" (engine_of s.s_session)
                (latency_ms s)
                (ms (s.s_send -. s.s_due))
                (ms (s.s_resp -. s.s_send)))));
  List.iter
    (fun e ->
      let ss = List.filter (fun (s : Serve.sess) -> s.spec.engine = e) p.sessions in
      Out.log "  %s: %d sessions, %d questions" e (List.length ss)
        (List.fold_left
           (fun n (s : Serve.sess) ->
             n + match s.final with Some (_, q) -> q | None -> 0)
           0 ss))
    (Array.to_list Serve.engines)

let checks p ~mismatched =
  let lost = List.filter (fun (s : Serve.sess) -> s.final = None) p.sessions in
  let failed_ids =
    List.sort_uniq compare
      (List.map fst p.gen.failures
      @ List.map (fun (s : Serve.sess) -> s.idx) (lost @ mismatched))
  in
  List.iter (fun (i, msg) -> Out.log "FAILED request of session %d: %s" i msg)
    (List.filteri (fun i _ -> i < 10) (List.rev p.gen.failures));
  if mismatched <> [] then
    Out.log "FAILED: %d sessions differ from their in-process replay"
      (List.length mismatched);
  if lost <> [] then Out.log "FAILED: %d sessions lost" (List.length lost);
  let stat k =
    match p.stats with
    | Some j -> Option.value ~default:(-1) (Json.get_int k j)
    | None -> -1
  in
  let drain_ok = List.for_all (( = ) 0) p.drain_codes in
  if not drain_ok then
    Out.log "FAILED: SIGTERM drain exit codes %s"
      (String.concat "," (List.map string_of_int p.drain_codes));
  let quarantine_ok = stat "quarantined" = 0 in
  if not quarantine_ok then Out.log "FAILED: quarantined = %d" (stat "quarantined");
  let evict_ok =
    p.cfg.name <> "serve-evict" || (stat "evicted" > 0 && stat "resumed" > 0)
  in
  if not evict_ok then
    Out.log "FAILED: serve-evict needs evicted > 0 and resumed > 0 (got %d, %d)"
      (stat "evicted") (stat "resumed");
  let bound_ok = p.gen.peak_conns <= 2 && p.gen.threads <= 2 in
  if not bound_ok then
    Out.log "FAILED: generator used %d connections, %d threads" p.gen.peak_conns
      p.gen.threads;
  ( failed_ids = [] && drain_ok && quarantine_ok && evict_ok && bound_ok,
    List.length failed_ids )

let context p =
  [
    ("server_flags", String.concat " " ("serve" :: p.flags));
    ( "sessions",
      Printf.sprintf "%d (%s; twig scale %g, join %d rows, path %d cities)"
        (List.length p.sessions)
        (String.concat "/" (Array.to_list Serve.engines))
        Serve.scale Serve.rows Serve.cities );
    ( "phases",
      String.concat ", "
        (List.map
           (fun (ph : Sched.phase) ->
             Printf.sprintf "%s %g/s %.2fs" ph.label ph.rate ph.duration)
           p.phases) );
    ("think_mean_s", Printf.sprintf "%g" Serve.think_mean);
    ("tail_limit_ms", Printf.sprintf "%g" p.cfg.tail_limit_ms);
    ("generator", Printf.sprintf "%d connections, %d threads, open loop" p.gen.peak_conns p.gen.threads);
    ("tail_rule", "11th largest sample: 10 samples beyond it");
  ]

let run ~workload ~seed ~seconds ~trace =
  let cfg = Serve.config workload in
  if not trace then begin
    let p = pass cfg ~seed ~seconds ~traced:false in
    report p;
    let t0 = now () in
    let mismatched, replay_s =
      Serve.replay_all (List.filter (fun (s : Serve.sess) -> s.final <> None) p.sessions)
    in
    Out.log "  replay of %d sessions: %d mismatched (%.2fs)" (List.length p.sessions)
      (List.length mismatched) (now () -. t0);
    let ok, failed = checks p ~mismatched in
    {
      Run_result.correct = ok;
      attempted = List.length p.sessions;
      failed;
      metrics = end_to_end p ~replay_s;
      context = context p;
    }
  end
  else begin
    let p0 = pass cfg ~seed ~seconds ~traced:false in
    report p0;
    let p = pass cfg ~seed ~seconds ~traced:true in
    report p;
    let t0 = now () in
    let finished = List.filter (fun (s : Serve.sess) -> s.final <> None) p.sessions in
    let mismatched, pruned = Serve.replay_timed finished in
    Out.log "  traced replay of %d sessions: %d mismatched (%.2fs)"
      (List.length finished) (List.length mismatched) (now () -. t0);
    let ok, failed = checks p ~mismatched in
    match p.flight with
    | None ->
        Out.log "FAILED: no flight recorder dump";
        {
          Run_result.correct = false;
          attempted = List.length p.sessions;
          failed;
          metrics = [];
          context = context p;
        }
    | Some fl ->
        let traced = List.filter (fun (s : Gen.sample) -> Hashtbl.mem fl.reqs s.s_trace) p.gen.samples in
        let missing = List.length p.gen.samples - List.length traced in
        let full = List.exists (fun (_, n) -> n >= ring_per_slot) fl.events_per_tid in
        let overwrote = missing > 0 || full in
        if overwrote then
          Out.log "FLAGGED: flight ring overwrote events of the traced window (%d requests without spans)" missing;
        let sts = stages p fl in
        let steady_w = List.hd (windows p) in
        let steady_answers =
          List.filter (fun st -> st.st_sample.s_route = "answer" && in_window steady_w st.st_sample) sts
        in
        let attributed = stage_table ~title:"steady-phase answers" steady_answers in
        ignore (stage_table ~title:"all requests" sts);
        let e2e0 = end_to_end p0 ~replay_s:[] and e2e1 = end_to_end p ~replay_s:[] in
        let get n l = (List.find (fun (x : Out.metric) -> x.name = n) l).value in
        let overhead =
          ((get "answer_ms_p50" e2e1 /. get "answer_ms_p50" e2e0) -. 1.) *. 100.
        in
        Out.log "  tracing overhead: answer p50 %.4f ms traced vs %.4f ms untraced (%+.1f%%); tail %.2f vs %.2f ms"
          (get "answer_ms_p50" e2e1) (get "answer_ms_p50" e2e0) overhead
          (get "answer_ms_tail" e2e1) (get "answer_ms_tail" e2e0);
        {
          Run_result.correct = ok && not overwrote;
          attempted = List.length p.sessions;
          failed;
          metrics = per_layer p fl ~pruned @ [ Out.m "trace.overhead_pct" "%" overhead ];
          context =
            context p
            @ [
                ("ring_overwrote", string_of_bool overwrote);
                ("answer_tail_attributed_to", attributed);
              ];
        }
  end
