(* Host-time benchmark of the Zmail simulator.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --list-metrics

   One workload per process.  With --trace 0 the workload is run
   repeatedly, untraced, for S seconds (at least three repetitions) and
   the end-to-end metrics are the medians.  With --trace 1 the run
   alternates untraced, traced and traced-without-invariants
   repetitions and reports the per-layer metrics.  Every repetition
   checks the workload's oracles and fingerprints its simulated outcome;
   all repetitions of one seed must agree on that digest.  The last
   line of standard output is one JSON object; on any oracle or digest
   failure it reports correct=false and the process exits 1. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload zipf_mail|serve_knee|audit_wide|crash_sweep --seed N \
     --seconds S --trace 0|1\n       main.exe --list-metrics";
  exit 2

type args = { workload : Zbench.Scenario.t; seed : int; seconds : float; trace : bool }

let parse () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--list-metrics" :: _ ->
        List.iter
          (fun (m : Zbench.Metrics.t) ->
            Printf.printf "%s %s %s %s %s\n" m.name m.unit_ (Zbench.Metrics.kind_string m.kind)
              (match m.section with End_to_end -> "end_to_end" | Per_layer -> "per_layer")
              m.layer)
          Zbench.Metrics.all;
        exit 0
    | "--workload" :: v :: rest ->
        workload := Zbench.Scenario.of_string v;
        if !workload = None then usage ();
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace ->
      { workload = Zbench.Scenario.get w; seed; seconds; trace }
  | _ -> usage ()

let min_reps = 3

let () =
  let a = parse () in
  let module O = Zbench.Workload in
  let name = Zbench.Scenario.to_string a.workload.Zbench.Scenario.name in
  let start = Zbench.Quant.fine () in
  let elapsed () = Zbench.Quant.fine () -. start in
  let digest = ref None in
  let failures = ref [] and attempted = ref 0 and failed = ref 0 in
  let run mode label =
    let o = O.run a.workload ~seed:a.seed ~mode in
    attempted := !attempted + o.O.attempted;
    failed := !failed + min o.O.attempted (List.length o.O.failures);
    List.iter (fun f -> failures := Printf.sprintf "%s: %s" label f :: !failures) o.O.failures;
    (* Without invariants the hourly checker heartbeat is absent, so
       that variant's event count (and digest) legitimately differs. *)
    if mode.O.invariants then begin
      match !digest with
      | None -> digest := Some o.O.digest
      | Some d when d <> o.O.digest ->
          incr failed;
          failures := Printf.sprintf "%s: digest %s <> %s" label o.O.digest d :: !failures
      | Some _ -> ()
    end;
    Printf.eprintf "%s %s: setup %.3fs run %.3fs kernel %.4fs events %d digest %s\n%!" name
      label o.O.setup_s o.O.run_s o.O.calibration_s o.O.events o.O.digest;
    o
  in
  (* Only the newest traced world and its schedule are kept (for the
     replay probes); holding every repetition's would grow the heap run
     by run. *)
  let forget (o : O.outcome) = { o with O.last_world = None; schedule = Zbench.Gen.empty } in
  let metrics =
    if not a.trace then begin
      let reps = ref [] in
      while List.length !reps < min_reps || elapsed () < a.seconds do
        reps := forget (run O.plain "untraced") :: !reps
      done;
      Zbench.Report.end_to_end (List.rev !reps)
    end
    else begin
      let plain = ref [] and traced = ref [] and bare = ref [] in
      let first = ref true in
      while !first || elapsed () < a.seconds do
        first := false;
        plain := forget (run O.plain "untraced") :: !plain;
        traced := run O.traced "traced" :: List.map forget !traced;
        bare := forget (run O.traced_no_invariants "traced-no-invariants") :: !bare
      done;
      Zbench.Report.per_layer a.workload ~plain:(List.rev !plain) ~traced:(List.rev !traced)
        ~bare:(List.rev !bare)
    end
  in
  let correct = !failures = [] in
  Printf.printf "perfbench %s seed=%d trace=%d digest=%s\n" name a.seed
    (if a.trace then 1 else 0)
    (Option.value !digest ~default:"-");
  List.iter (fun f -> Printf.eprintf "FAIL %s\n" f) (List.rev !failures);
  if correct then Zbench.Report.print_table metrics;
  print_endline
    (Zbench.Report.json_line ~correct ~attempted:!attempted ~failed:!failed
       (if correct then metrics else []));
  exit (if correct then 0 else 1)
