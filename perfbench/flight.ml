(* Per-request stages from the server's flight recorder.

   The traced run sends one X-Learnq-Trace id per request and, once the
   traffic has stopped, pulls /debug/flightrecorder — a Chrome trace-event
   dump of paired Begin/End span events, each carrying the trace id that
   was current when it was recorded.  Joining spans by trace id gives,
   per request:

     http.request   the handler on a mux worker, parse to response
     serve.job      the job on a pool domain, inside http.request
     journal.fsync  zero or more, inside serve.job

   and so the stages (client round trip measured by the generator):

     mux io          round trip − http.request   (socket, poll loop, parse)
     admission wait  http.request − serve.job    (queue + batch barrier)
     stepper job     serve.job − its fsyncs      (engine compute)
     journal fsync   the fsyncs *)

module Json = Server.Json

type span = { s_name : string; s_b : float; s_e : float }  (** µs *)

type req = {
  r_http : float option;  (** ms *)
  r_job : float option;
  r_fsync : float;  (** ms, summed *)
  r_fsyncs : int;
  r_http_b : float;  (** µs, recorder clock *)
  r_http_e : float;
}

type t = {
  reqs : (string, req) Hashtbl.t;  (** by trace id *)
  fsync_ms : float list;  (** every fsync span, traced or not *)
  compactions : int;
  evictions : (string * float) list;  (** session key, µs *)
  events_per_tid : (int * int) list;
}

let str k j = Option.value ~default:"" (Json.get_str k j)

let analyse j =
  let evs =
    match Json.mem "traceEvents" j with Some (Json.Arr l) -> l | _ -> []
  in
  let per_tid = Hashtbl.create 8 in
  (* Open Begin events, keyed by (tid, name, trace): spans of one name
     nest only on one domain, so a stack per key pairs them. *)
  let open_ = Hashtbl.create 1024 in
  let spans = Hashtbl.create 1024 in
  let fsyncs = ref [] and compactions = ref 0 and evictions = ref [] in
  List.iter
    (fun e ->
      let name = str "name" e and ph = str "ph" e in
      let ts = Option.value ~default:0. (Json.get_num "ts" e) in
      let tid = Option.value ~default:0 (Json.get_int "tid" e) in
      let args = Option.value ~default:(Json.Obj []) (Json.mem "args" e) in
      let trace = str "trace" args in
      Hashtbl.replace per_tid tid
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_tid tid));
      let key = (tid, name, trace) in
      match ph with
      | "B" ->
          Hashtbl.replace open_ key
            (ts :: Option.value ~default:[] (Hashtbl.find_opt open_ key))
      | "E" -> (
          match Hashtbl.find_opt open_ key with
          | Some (b :: rest) ->
              Hashtbl.replace open_ key rest;
              let sp = { s_name = name; s_b = b; s_e = ts } in
              if name = "journal.fsync" then
                fsyncs := ((ts -. b) /. 1e3) :: !fsyncs;
              if trace <> "" then
                Hashtbl.replace spans trace
                  (sp :: Option.value ~default:[] (Hashtbl.find_opt spans trace))
          | _ -> ())
      | _ ->
          if name = "journal.compact" then incr compactions
          else if name = "session.evicted" then
            evictions := (str "detail" args, ts) :: !evictions)
    evs;
  let reqs = Hashtbl.create (Hashtbl.length spans) in
  Hashtbl.iter
    (fun trace sps ->
      let dur name =
        List.find_map
          (fun s -> if s.s_name = name then Some s else None)
          sps
      in
      let fs = List.filter (fun s -> s.s_name = "journal.fsync") sps in
      let http = dur "http.request" in
      Hashtbl.replace reqs trace
        {
          r_http = Option.map (fun s -> (s.s_e -. s.s_b) /. 1e3) http;
          r_job =
            Option.map (fun s -> (s.s_e -. s.s_b) /. 1e3) (dur "serve.job");
          r_fsync =
            List.fold_left (fun a s -> a +. ((s.s_e -. s.s_b) /. 1e3)) 0. fs;
          r_fsyncs = List.length fs;
          r_http_b = (match http with Some s -> s.s_b | None -> nan);
          r_http_e = (match http with Some s -> s.s_e | None -> nan);
        })
    spans;
  {
    reqs;
    fsync_ms = !fsyncs;
    compactions = !compactions;
    evictions = !evictions;
    events_per_tid = Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_tid [];
  }
