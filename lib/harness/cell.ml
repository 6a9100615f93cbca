let retire ~tag ~exempt checkers =
  List.iter
    (fun c ->
      let name = Obs.Invariant.name c in
      if (not (List.mem name exempt)) && Obs.Invariant.checks c = 0 then
        failwith (tag ^ ": checker " ^ name ^ " never ran");
      Obs.Invariant.detach c)
    checkers

let drain ~tag persist ~label ~world ~days checkers =
  (try
     Checkpoint.drive persist ~label ~world ~days ();
     Zmail.World.run_until_quiet world;
     (* Drained: every paid message settled or was refunded, so the
        checkers may also demand zero credits in flight. *)
     Zmail.World.check_invariants ~quiescent:true world
   with Obs.Invariant.Violation v ->
     (* Fail loudly with the ring-buffer context, then let the failure
        propagate. *)
     Format.eprintf "%a@." Obs.Invariant.pp_violation v;
     raise (Obs.Invariant.Violation v));
  retire ~tag ~exempt:[] checkers

type tally = { mutable attempts : int; mutable paid : int }

let zipf_mail world ~n_isps ~users_per_isp ~sends_per_user ~days =
  let engine = Zmail.World.engine world in
  let rng = Sim.Engine.rng engine in
  let universe = n_isps * users_per_isp in
  let of_global g = (g / users_per_isp, g mod users_per_isp) in
  let senders = Sim.Workload.zipf_senders ~universe ~s:1.1 ~stride_from:97 in
  let tally = { attempts = 0; paid = 0 } in
  let send () =
    let g, t = Sim.Workload.pair senders rng in
    tally.attempts <- tally.attempts + 1;
    match
      Zmail.World.send_email world ~from:(of_global g) ~to_:(of_global t) ()
    with
    | Zmail.World.Submitted `Paid -> tally.paid <- tally.paid + 1
    | Zmail.World.Submitted `Free | Zmail.World.Deferred_snapshot
    | Zmail.World.Failed_down | Zmail.World.Backpressured
    | Zmail.World.Rejected _ ->
        ()
  in
  Sim.Workload.fleet engine ~total:(universe * sends_per_user) ~generators:16
    ~span:(days *. Sim.Engine.day) ~stagger:13. send;
  tally

type fault_level = { flabel : string; mesh : Sim.Fault.plan; partitioned : bool }

let fault_levels =
  [
    { flabel = "calm"; mesh = Sim.Fault.reliable; partitioned = false };
    {
      flabel = "lossy";
      mesh = Sim.Fault.plan ~drop:0.05 ~delay_prob:0.10 ~delay_max:2.0 ();
      partitioned = false;
    };
    {
      flabel = "partitioned";
      mesh = Sim.Fault.plan ~drop:0.02 ~delay_prob:0.05 ~delay_max:2.0 ();
      partitioned = true;
    };
  ]

let partition_windows ~n_isps =
  let day = Sim.Engine.day in
  let groups = Array.make (n_isps + 1) 0 in
  groups.(2) <- 1;
  groups.(3) <- 1;
  [
    Sim.Fault.Mesh.partition ~start:(0.3 *. day) ~stop:(0.95 *. day) ~groups;
    Sim.Fault.Mesh.partition ~start:(1.45 *. day) ~stop:(1.55 *. day) ~groups;
  ]

let grid_config ~seed ~tracer ~n_isps ~users_per_isp ~audit_period fl =
  {
    (Zmail.World.default_config ~n_isps ~users_per_isp) with
    Zmail.World.seed;
    audit_period = Some audit_period;
    retain_mail = false;
    tracer = Some tracer;
    mesh_default = fl.mesh;
    partitions = (if fl.partitioned then partition_windows ~n_isps else []);
    customize_isp = (fun _ -> Zmail.Isp.scale_pools ~users_per_isp);
  }

let grid rows cols run =
  List.concat_map (fun row -> List.map (fun col -> (row, col)) cols) rows
  |> List.mapi (fun k (row, col) -> (row, col, run k row col))

let with_metrics (obs : Obs.Run.t) tables metrics =
  match List.rev metrics with
  | last :: _ when obs.Obs.Run.metrics -> tables @ [ last ]
  | _ -> tables

type rounds = (float * Zmail.Bank.audit_result) list

let sum_rounds (audits : rounds) f =
  List.fold_left (fun acc (_, r) -> acc + f r) 0 audits

let first_round (audits : rounds) p =
  List.find_map (fun (time, r) -> if p r then Some time else None) audits

let day_of = function
  | Some time -> Printf.sprintf "day %.2f" (time /. Sim.Engine.day)
  | None -> "never"

let convictions ~compliant (r : Zmail.Bank.audit_result) =
  let present =
    Array.mapi (fun i c -> c && not (List.mem i r.Zmail.Bank.absent)) compliant
  in
  Audit.Verify.offenders ~present r.Zmail.Bank.violations
