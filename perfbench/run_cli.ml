(* Runs the cli-engines workload and turns its passes into a result. *)

module C = Cli_engines

let run ~seed ~seconds ~trace =
  let plain = C.pass ~seed ~seconds ~traced:false in
  Out.log "cli-engines seed=%d: %d sessions in %.2fs" seed
    (List.length plain.C.sessions) plain.C.elapsed;
  C.report plain;
  let wrong =
    List.filter (fun (s : C.session) -> not s.agrees) plain.C.sessions
  in
  List.iter
    (fun (s : C.session) ->
      Out.log "WRONG learned query: %s session, goal %s" s.engine s.label)
    wrong;
  let repeat_ok = C.repeat_check ~seed ~seconds plain in
  if not repeat_ok then Out.log "FAILED: a repeated session asked other questions";
  let metrics =
    if not trace then C.end_to_end plain
    else begin
      let traced = C.pass ~seed ~seconds ~traced:true in
      let wall (p : C.pass) =
        Stats.sum (List.map (fun (s : C.session) -> s.wall_s) p.C.sessions)
      in
      let overhead = ((wall traced /. wall plain) -. 1.) *. 100. in
      Out.log "tracing overhead: %.2f%% of session wall time (%.3fs vs %.3fs)"
        overhead (wall traced) (wall plain);
      C.per_layer traced @ [ Out.m "trace.overhead_pct" "%" overhead ]
    end
  in
  {
    Run_result.correct = wrong = [] && repeat_ok;
    attempted = List.length plain.C.sessions;
    failed = List.length wrong;
    metrics;
    context =
      [
        ("rounds", string_of_int (C.rounds ~seconds));
        ("questions_digest", C.questions_digest plain);
        ( "instances",
          Printf.sprintf "twig xmark scale %g; join %d rows; path %d cities"
            C.twig_scale C.join_rows C.path_cities );
        ("tail_rule", "11th largest sample: 10 samples beyond it");
      ];
  }
