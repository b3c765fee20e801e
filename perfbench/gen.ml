(* Open-loop request generator: a fixed number of keep-alive connections,
   one thread per connection (the calling thread is one of them), and a
   due-time queue.

   Every request has a due time: a session's first request is due at its
   arrival, each later one a think time after the previous response.  A
   thread takes the earliest due request once it is due and sends it on
   its own connection.  When every connection is busy, due requests wait
   in the queue — and because latency is charged from the due time, not
   from the send, that wait counts against the system under test, as it
   would for a user who had already answered.  [lag] (send minus due)
   reports how late the generator itself ran.

   The generator knows nothing about HTTP: [connect], [close] and [step]
   are supplied by the caller, so the self-tests drive it with a fake
   transport and a simulated service time. *)

type 'j outcome =
  | Continue of { think : float; next : 'j }
  | Finished
  | Failed of string

type sample = {
  s_session : int;
  s_route : string;
  s_due : float;  (** absolute, [Core.Monotonic.now] seconds *)
  s_send : float;
  s_resp : float;
  s_trace : string;  (** trace id sent with the request, or "" *)
}

type result = {
  samples : sample list;  (** every completed request, any order *)
  failures : (int * string) list;  (** session, reason *)
  lag_max : float;  (** worst send-minus-due, seconds *)
  peak_conns : int;  (** most connections ever open at once *)
  threads : int;  (** distinct threads that sent requests *)
  t0 : float;  (** absolute start; arrival offsets count from here *)
}

module Q = Set.Make (struct
  type t = float * int

  let compare = compare
end)

let now = Core.Monotonic.now

(* [mark = (offset, f)] runs [f] once, on whichever thread first finds the
   run [offset] seconds old. *)
let run ?mark ~conns ~connect ~close ~route ~trace ~step arrivals =
  let conns = max 1 conns in
  let mu = Mutex.create () in
  let q = ref Q.empty in
  let jobs = Hashtbl.create 1024 in
  let seq = ref 0 in
  let push due sess job =
    incr seq;
    q := Q.add (due, !seq) !q;
    Hashtbl.replace jobs !seq (sess, job)
  in
  let inflight = ref 0 in
  let samples = ref [] and failures = ref [] and lag_max = ref 0. in
  let open_conns = ref 0 and peak_conns = ref 0 in
  let thread_ids = Hashtbl.create 4 in
  let open_conn () =
    let c = connect () in
    Mutex.protect mu (fun () ->
        incr open_conns;
        peak_conns := max !peak_conns !open_conns);
    c
  in
  let close_conn c =
    close c;
    Mutex.protect mu (fun () -> decr open_conns)
  in
  (* Connections open before the clock starts: connection set-up is not
     part of any request's latency. *)
  let cs = Array.init conns (fun _ -> open_conn ()) in
  let t0 = now () in
  List.iter (fun (sess, offset, job) -> push (t0 +. offset) sess job) arrivals;
  let mark = ref mark in
  let rec worker c =
    Mutex.lock mu;
    (match !mark with
    | Some (offset, f) when now () -. t0 >= offset ->
        mark := None;
        f ()
    | _ -> ());
    match Q.min_elt_opt !q with
    | None ->
        let idle = !inflight = 0 in
        Mutex.unlock mu;
        if not idle then begin
          (* Another connection's response may still schedule work. *)
          Thread.delay 0.0005;
          worker c
        end
    | Some ((due, id) as key) ->
        let t = now () in
        if due > t then begin
          Mutex.unlock mu;
          Thread.delay (Float.min (due -. t) 0.001);
          worker c
        end
        else begin
          q := Q.remove key !q;
          let sess, job = Hashtbl.find jobs id in
          Hashtbl.remove jobs id;
          incr inflight;
          Hashtbl.replace thread_ids (Thread.id (Thread.self ())) ();
          Mutex.unlock mu;
          let tr = trace sess job in
          let send = now () in
          let out =
            try step c tr job with e -> Failed (Printexc.to_string e)
          in
          let resp = now () in
          Mutex.lock mu;
          decr inflight;
          lag_max := Float.max !lag_max (send -. due);
          samples :=
            {
              s_session = sess;
              s_route = route job;
              s_due = due;
              s_send = send;
              s_resp = resp;
              s_trace = tr;
            }
            :: !samples;
          (match out with
          | Continue { think; next } -> push (resp +. think) sess next
          | Finished -> ()
          | Failed msg -> failures := (sess, msg) :: !failures);
          Mutex.unlock mu;
          worker c
        end
  in
  let others =
    List.init (conns - 1) (fun i -> Thread.create worker cs.(i + 1))
  in
  worker cs.(0);
  List.iter Thread.join others;
  Array.iter close_conn cs;
  {
    samples = !samples;
    failures = !failures;
    lag_max = !lag_max;
    peak_conns = !peak_conns;
    threads = Hashtbl.length thread_ids;
    t0;
  }
