(* Self-tests of the benchmark: its inputs are a pure function of the
   seed, its metric catalogue matches BENCHMARK.json, its oracles read
   live values, and its outcome digest is stable across repetitions and
   across traced and untraced runs.

   Usage: selftest.exe BENCHMARK.json *)

open Zbench

let benchmark_json = ref "BENCHMARK.json"

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let test_inputs_per_seed () =
  List.iter
    (fun w ->
      let spec = Scenario.get w in
      let name = Scenario.to_string w in
      let a = spec.Scenario.schedule ~seed:7 and b = spec.Scenario.schedule ~seed:7 in
      let c = spec.Scenario.schedule ~seed:8 in
      Alcotest.(check bool) (name ^ ": same seed, same inputs") true (Gen.equal a b);
      Alcotest.(check bool) (name ^ ": other seed, other inputs") false (Gen.equal a c);
      Alcotest.(check int) (name ^ ": fixed budget") (Gen.length a) (Gen.length c);
      let universe = Scenario.universe spec in
      Array.iteri
        (fun k t ->
          if k > 0 && t < a.Gen.at.(k - 1) then Alcotest.fail (name ^ ": times go backwards");
          let s = a.Gen.src.(k) and d = a.Gen.dst.(k) in
          if s = d || s < 0 || d < 0 || s >= universe || d >= universe then
            Alcotest.fail (name ^ ": bad sender/recipient"))
        a.Gen.at)
    Scenario.all

(* ------------------------------------------------------------------ *)
(* Metric catalogue vs BENCHMARK.json                                  *)
(* ------------------------------------------------------------------ *)

(* The value of ["key": "value"] inside one flat JSON object body. *)
let field body key =
  let pat = Printf.sprintf "\"%s\": \"" key in
  let lp = String.length pat in
  let rec find i =
    if i + lp > String.length body then None
    else if String.sub body i lp = pat then
      let j = String.index_from body (i + lp) '"' in
      Some (String.sub body (i + lp) (j - i - lp))
    else find (i + 1)
  in
  find 0

(* [(name, unit option)] of every object in BENCHMARK.json, in order:
   splitting on '{' leaves one flat object per chunk. *)
let json_objects () =
  let ic = open_in_bin !benchmark_json in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  List.filter_map
    (fun chunk -> Option.map (fun n -> (n, field chunk "unit")) (field chunk "name"))
    (String.split_on_char '{' text)

let test_metric_names () =
  let names = List.map (fun m -> m.Metrics.name) Metrics.all in
  List.iter
    (fun n -> if not (Metrics.valid_name n) then Alcotest.fail ("bad metric name " ^ n))
    names;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let objs = json_objects () in
  let metrics = List.filter (fun (_, u) -> u <> None) objs in
  let workloads = List.filter (fun (_, u) -> u = None) objs in
  Alcotest.(check (list (pair string string)))
    "BENCHMARK.json lists the catalogue, in order, with its units"
    (List.map (fun m -> (m.Metrics.name, m.Metrics.unit_)) Metrics.all)
    (List.map (fun (n, u) -> (n, Option.get u)) metrics);
  List.iter
    (fun (w, _) ->
      if Scenario.of_string w = None then Alcotest.fail ("unknown workload " ^ w))
    workloads

(* ------------------------------------------------------------------ *)
(* Oracles and digest on a small world                                 *)
(* ------------------------------------------------------------------ *)

(* A small zipf_mail: 4 ISPs x 25 users, the cheater at ISP 1, audits
   every 12 h over a day and a half, pools lean enough that the bank
   buy/sell loop (and its exactly-once checker) runs. *)
let small =
  let base = Scenario.zipf_mail in
  let n_isps = 4 and users_per_isp = 25 in
  {
    base with
    Scenario.n_isps;
    users_per_isp;
    horizon = 1.5 *. Scenario.day;
    config =
      (fun ~seed ->
        {
          (Zmail.World.default_config ~n_isps ~users_per_isp) with
          Zmail.World.seed;
          audit_period = Some (12. *. Scenario.hour);
          customize_isp =
            (fun i cfg ->
              Scenario.with_cheat ~cheater:base.Scenario.cheater ~per_day:3 i
                { cfg with Zmail.Isp.initial_avail = 10; minavail = 20; buy_amount = 50 });
        });
    schedule =
      (fun ~seed ->
        Gen.zipf ~seed ~tag:1 ~universe:(n_isps * users_per_isp) ~n:400
          ~span:Scenario.day ~s:1.1);
  }

let test_oracles_read_live_values () =
  let o = Workload.run small ~seed:3 ~mode:Workload.plain in
  Alcotest.(check (list string)) "oracles pass" [] o.Workload.failures;
  let w = Option.get o.Workload.last_world in
  let minted = Zmail.World.cheat_minted w in
  Alcotest.(check bool) "the cheater minted" true (minted > 0);
  Alcotest.(check int) "residue equals minted" minted (Zmail.World.epenny_residue w);
  (* The same finished world judged as if it had no cheater: the
     residue oracle must now object, because it reads the live value. *)
  let honest = { small with Scenario.cheater = None } in
  let fails = Workload.world_oracles honest w ~checkers:[] ~mode:Workload.plain in
  Alcotest.(check bool) "a cheater-free claim fails on this world" true (fails <> [])

let test_digest_stable () =
  let a = Workload.run small ~seed:5 ~mode:Workload.plain in
  let b = Workload.run small ~seed:5 ~mode:Workload.plain in
  let t = Workload.run small ~seed:5 ~mode:Workload.traced in
  let c = Workload.run small ~seed:6 ~mode:Workload.plain in
  Alcotest.(check string) "repeat" a.Workload.digest b.Workload.digest;
  Alcotest.(check string) "traced = untraced" a.Workload.digest t.Workload.digest;
  Alcotest.(check bool) "seed changes the outcome" true (a.Workload.digest <> c.Workload.digest);
  Alcotest.(check int) "one slice per step plus the drain" (Workload.n_slices + 1)
    (Array.length a.Workload.slices)

let () =
  (match Sys.argv with [| _; path |] -> benchmark_json := path | _ -> ());
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ("inputs", [ Alcotest.test_case "identical per seed, differ across seeds" `Quick test_inputs_per_seed ]);
      ("metrics", [ Alcotest.test_case "names match BENCHMARK.json" `Quick test_metric_names ]);
      ( "oracles",
        [
          Alcotest.test_case "read live values" `Quick test_oracles_read_live_values;
          Alcotest.test_case "digest stable per seed" `Quick test_digest_stable;
        ] );
    ]
