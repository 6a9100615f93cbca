(* E18: Byzantine ISPs under mesh chaos — the §4.4 robustness argument
   measured.  A grid of adversary behaviors (report tampering at thaw:
   understating owed credit, replaying a stale row, dropping one
   peer's cross-check entry) against fault levels (calm mesh, lossy
   links, scheduled partitions that sever the adversary's group from
   the bank).  The questions each cell answers:

   - detection: when is the adversary first implicated (appears in a
     violating pair) and first *convicted* (violates with a strict
     majority of present peers)?  The partition cells additionally
     show that detection survives quorum rounds and reconciled
     late reports — the adversary cannot hide behind a partition.
   - false accusations: no honest ISP may ever be convicted, under any
     cell of the grid.  Honest ISPs implicated for investigation
     (every violating pair names two parties) are reported separately
     — that is §4.4's stated ambiguity, not a false conviction.
   - conservation: every adversary here is balance-neutral by
     construction (the tamper rewrites reports, never money), so the
     residue must be zero in every cell, including the ones where
     partitioned mail bounces and is refunded.

   Unlike E16/E17 there is no Fake_receives cheater: money is honest
   everywhere and only the *reports* lie. *)

let hour = Sim.Engine.hour

let days = 2.0
let audit_period = 6. *. hour
let adversary_isp = 2  (* on the severed side of [Cell.partition_windows] *)
let crosscheck_victim = 5

let adversaries =
  [
    None;
    Some (Zmail.Adversary.Understate_owed 3);
    Some Zmail.Adversary.Replay_stale;
    Some (Zmail.Adversary.Drop_crosscheck crosscheck_victim);
  ]

type outcome = {
  attempts : int;
  paid : int;
  delivered : int;
  bounced : int;
  refunds : int;
  partition_dropped : int;
  link_dropped : int;
  audits : int;
  deferred_rounds : int;
  absences : int;  (* Σ |absent| over completed rounds *)
  adv_implicated : float option;
  adv_convicted : float option;
  honest_convicted : int;  (* false accusations; must be 0 *)
  honest_implicated : int;  (* investigation leads: allowed, reported *)
  tampered : int;
  residue : int;
  metrics : Sim.Table.t;
}

(* Convictions are {!Cell.convictions}, never [r.suspects]: the
   suspect list falls back to "everyone implicated" when nobody crosses
   the majority threshold, and for measuring false accusations that
   investigation fallback must not count as a conviction. *)
let adv_name = function Some b -> Zmail.Adversary.name b | None -> "none"

let run_cell ~tracer ~persist ~seed ~n_isps ~users_per_isp ~sends_per_user
    ~(fl : Cell.fault_level) ~behavior =
  let world =
    Zmail.World.create
      (Cell.grid_config ~seed ~tracer ~n_isps ~users_per_isp ~audit_period fl)
  in
  let adv = Option.map Zmail.Adversary.create behavior in
  (match adv with
  | Some adv -> Zmail.World.register_adversary world ~isp:adversary_isp adv
  | None -> ());
  (* After register_adversary: the honest mask must already exclude the
     tampering ISP when the antisymmetry checker subscribes. *)
  let checkers = Zmail.World.attach_invariants world in
  let tally =
    Cell.zipf_mail world ~n_isps ~users_per_isp ~sends_per_user ~days
  in
  let label = Printf.sprintf "%s/%s" (adv_name behavior) fl.flabel in
  Cell.drain ~tag:"E18" persist ~label ~world ~days:(days +. 0.5) checkers;
  let compliant = (Zmail.World.config world).Zmail.World.compliant in
  let audits = Zmail.World.audit_results_timed world in
  let first = Cell.first_round audits in
  let adv_implicated =
    match behavior with
    | None -> None
    | Some _ ->
        first (fun r ->
            List.mem adversary_isp (Audit.Verify.implicated r.Zmail.Bank.violations))
  in
  let adv_convicted =
    match behavior with
    | None -> None
    | Some _ ->
        first (fun r -> List.mem adversary_isp (Cell.convictions ~compliant r))
  in
  let honest_of l = List.filter (fun i -> i <> adversary_isp) l in
  let honest_convicted =
    Cell.sum_rounds audits (fun r ->
        List.length (honest_of (Cell.convictions ~compliant r)))
  in
  let honest_implicated =
    Cell.sum_rounds audits (fun r ->
        List.length
          (honest_of (Audit.Verify.implicated r.Zmail.Bank.violations)))
  in
  let c = Zmail.World.counters world in
  let link = Zmail.World.link_stats world in
  let mesh = Zmail.World.mesh world in
  let mta_bounced =
    let sum = ref 0 in
    for i = 0 to n_isps - 1 do
      sum := !sum + (Smtp.Mta.stats (Zmail.World.mta world i)).Smtp.Mta.bounced
    done;
    !sum
  in
  {
    attempts = tally.Cell.attempts;
    paid = tally.Cell.paid;
    delivered = c.Zmail.World.ham_delivered;
    bounced = mta_bounced;
    refunds = Sim.Stats.Counter.value link.Zmail.World.bounce_refunds;
    partition_dropped = Sim.Fault.Mesh.partition_dropped mesh;
    link_dropped = Sim.Fault.Mesh.link_dropped mesh;
    audits = List.length audits;
    deferred_rounds = Sim.Stats.Counter.value link.Zmail.World.audits_deferred;
    absences =
      Cell.sum_rounds audits (fun r -> List.length r.Zmail.Bank.absent);
    adv_implicated;
    adv_convicted;
    honest_convicted;
    honest_implicated;
    tampered = (match adv with Some a -> Zmail.Adversary.tampered a | None -> 0);
    residue = Zmail.World.epenny_residue world;
    metrics = Obs.Metrics.to_table (Zmail.World.metrics world);
  }

let run ?obs ?persist ?(seed = 18) ?(full = false) () =
  let obs = Option.value obs ~default:Obs.Run.none in
  let persist = Option.value persist ~default:Checkpoint.none in
  let tracer = Obs.Run.tracer_or obs ~capacity:512 in
  let n_isps, users_per_isp, sends_per_user =
    if full then (100, 1000, 3) else (10, 100, 3)
  in
  let outcomes =
    Cell.grid adversaries Cell.fault_levels (fun k behavior fl ->
        run_cell ~tracer ~persist ~seed:(seed + k) ~n_isps ~users_per_isp
          ~sends_per_user ~fl ~behavior)
  in
  let traffic =
    Sim.Table.create
      ~title:
        (Printf.sprintf
           "E18 (adversarial robustness): goodput and refunds under mesh \
            chaos (%d ISPs x %d users, %.0f days, audits every %g h, \
            adversary = ISP %d tampering its audit reports)"
           n_isps users_per_isp days (audit_period /. hour) adversary_isp)
      ~columns:
        [
          "adversary";
          "faults";
          "sends";
          "paid";
          "delivered";
          "goodput";
          "bounced";
          "refunds";
          "mesh drops";
          "partition drops";
        ]
  in
  List.iter
    (fun (behavior, fl, o) ->
      Sim.Table.add_row traffic
        [
          adv_name behavior;
          fl.Cell.flabel;
          Sim.Table.cell_int o.attempts;
          Sim.Table.cell_int o.paid;
          Sim.Table.cell_int o.delivered;
          Sim.Table.cell_pct
            (float_of_int o.delivered /. float_of_int o.attempts);
          Sim.Table.cell_int o.bounced;
          Sim.Table.cell_int o.refunds;
          Sim.Table.cell_int o.link_dropped;
          Sim.Table.cell_int o.partition_dropped;
        ])
    outcomes;
  let detection =
    Sim.Table.create
      ~title:
        "E18: detection across the same grid (convicted = strict majority \
         of present peers; implicated honest ISPs are §4.4 investigation \
         leads, never convictions; residue must be 0 — every tamper is \
         balance-neutral)"
      ~columns:
        [
          "adversary";
          "faults";
          "audits";
          "deferred";
          "absences";
          "tampered reports";
          "adv implicated";
          "adv convicted";
          "honest implicated";
          "honest convicted";
          "residue";
          "zero-sum holds";
        ]
  in
  List.iter
    (fun (behavior, fl, o) ->
      Sim.Table.add_row detection
        [
          adv_name behavior;
          fl.Cell.flabel;
          Sim.Table.cell_int o.audits;
          Sim.Table.cell_int o.deferred_rounds;
          Sim.Table.cell_int o.absences;
          Sim.Table.cell_int o.tampered;
          Cell.day_of o.adv_implicated;
          Cell.day_of o.adv_convicted;
          Sim.Table.cell_int o.honest_implicated;
          Sim.Table.cell_int o.honest_convicted;
          Sim.Table.cell_int o.residue;
          (if o.residue = 0 then "yes" else "NO");
        ])
    outcomes;
  Cell.with_metrics obs [ traffic; detection ]
    (List.map (fun (_, _, o) -> o.metrics) outcomes)
