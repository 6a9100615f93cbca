(* E21: collusion rings vs the cycle-sum detector — §4.4's open flank
   measured.  Pairwise auditing catches a lone liar because its row
   disagrees with a majority of honest peers; a *coalition* can instead
   aim its lies at one honest victim and balance them (one member
   overstates what the victim owes, another understates by the same
   amount), so no member ever crosses the strict-majority threshold and
   the victim sits in the middle of every violating pair.  The sparse
   audit engine's cycle detector (lib/audit) walks the claim graph
   around each violation center, groups the accusers connected by
   consistent-nonzero fabricated edges, and convicts exactly the
   coalitions whose star sums to zero — clearing the center.

   The grid crosses collusion plans (none, an antisymmetric pair, a
   3-ring, plus a 5-ring under --full) with fault levels (calm mesh,
   scheduled partitions that sever one coalition member from the bank
   across audit rounds).  Each cell answers:

   - conviction: are *all* coalition members convicted — including the
     member whose report only arrives after a partition heals, via the
     carry matrix — and when?
   - framing: is the victim at the center of every fabricated star
     cleared, and is no honest ISP ever convicted, in any cell?
   - conservation: collusion tampers reports, never money, so the
     e-penny residue must be zero everywhere.

   Under --full the grid also rises to 10^4 ISPs — feasible only on the
   sparse representation; dense rows alone would need ~800 MB. *)

let hour = Sim.Engine.hour
let day = Sim.Engine.day

let days = 2.0
let audit_period = 6. *. hour

(* A collusion plan: which ISPs tamper, whom they frame, and the
   per-member behaviors from the {!Zmail.Adversary} plan builders. *)
type plan = {
  plabel : string;
  colluders : int list;
  victims : int list;
  assignments : (int * Zmail.Adversary.behavior) list;
}

let no_collusion =
  { plabel = "none"; colluders = []; victims = []; assignments = [] }

(* Members sit on even indices, victims on odd ones, so plans stay
   disjoint from the partition companion (ISP 3 is never a member). *)
let pair_plan =
  {
    plabel = "pair";
    colluders = [ 2; 4 ];
    victims = [ 5 ];
    assignments = Zmail.Adversary.collusion_pair ~a:2 ~b:4 ~victim:5 ~delta:3 ();
  }

let ring_plan k =
  let members = List.init k (fun i -> 2 * (i + 1)) in
  let victims = List.init k (fun i -> (2 * i) + 5) in
  {
    plabel = Printf.sprintf "ring%d" k;
    colluders = members;
    victims;
    assignments = Zmail.Adversary.collusion_ring ~members ~victims ~delta:2 ();
  }

(* Calm and partitioned only.  Every plan includes member 2, so the
   partitioned level's [Cell.partition_windows] sever a coalition
   member (with its honest companion, ISP 3, never a member) from the
   bank across the 0.5 d and 0.75 d audit rounds, then briefly again
   around 1.5 d.  The member's tampered row only reaches the bank after
   the heal, so ring conviction must ride the carry-matrix
   reconciliation. *)
let levels =
  List.filter (fun fl -> fl.Cell.flabel <> "lossy") Cell.fault_levels

type outcome = {
  attempts : int;
  paid : int;
  delivered : int;
  audits : int;
  deferred_rounds : int;
  absences : int;
  rings_found : int;
  ring_volume : int;
  first_ring : float option;  (* first round with any ring conviction *)
  all_convicted : float option;  (* first round convicting every member *)
  post_heal : float option;
      (* first full-coalition conviction after the first partition
         window heals — the round whose verification leans on the
         carry matrix for the severed member's late report *)
  victims_cleared : int;  (* Σ |cleared ∩ victims| over rounds *)
  honest_convicted : int;  (* must be 0 in every cell *)
  tampered : int;
  residue : int;
  metrics : Sim.Table.t;
}

let run_cell ~tracer ~persist ~seed ~n_isps ~users_per_isp ~sends_per_user
    ~(fl : Cell.fault_level) ~(plan : plan) =
  let world =
    Zmail.World.create
      (Cell.grid_config ~seed ~tracer ~n_isps ~users_per_isp ~audit_period fl)
  in
  let advs =
    List.map
      (fun (isp, behavior) ->
        let adv = Zmail.Adversary.create behavior in
        Zmail.World.register_adversary world ~isp adv;
        adv)
      plan.assignments
  in
  (* After register_adversary: the honest mask excludes every coalition
     member before the antisymmetry and cycle-residue checkers
     subscribe — a victim conviction trips cycle-residue instantly. *)
  let checkers = Zmail.World.attach_invariants world in
  let tally =
    Cell.zipf_mail world ~n_isps ~users_per_isp ~sends_per_user ~days
  in
  let label = Printf.sprintf "%s/%s" plan.plabel fl.flabel in
  Cell.drain ~tag:"E21" persist ~label ~world ~days:(days +. 0.5) checkers;
  let audits = Zmail.World.audit_results_timed world in
  let first = Cell.first_round audits in
  let first_ring = first (fun r -> r.Zmail.Bank.rings <> []) in
  let full_conviction (r : Zmail.Bank.audit_result) =
    List.for_all (fun m -> List.mem m r.Zmail.Bank.convicted) plan.colluders
  in
  let all_convicted =
    match plan.colluders with [] -> None | _ -> first full_conviction
  in
  let post_heal =
    match plan.colluders with
    | [] -> None
    | _ ->
        List.find_map
          (fun (time, r) ->
            if time > 0.95 *. day && full_conviction r then Some time else None)
          audits
  in
  let count p l = List.length (List.filter p l) in
  let honest_convicted =
    Cell.sum_rounds audits (fun r ->
        count (fun i -> not (List.mem i plan.colluders)) r.Zmail.Bank.convicted)
  in
  let victims_cleared =
    Cell.sum_rounds audits (fun r ->
        count (fun i -> List.mem i plan.victims) r.Zmail.Bank.cleared)
  in
  let rings_found =
    Cell.sum_rounds audits (fun r -> List.length r.Zmail.Bank.rings)
  in
  let ring_volume =
    Cell.sum_rounds audits (fun r ->
        List.fold_left
          (fun a (ring : Audit.Cycle.ring) -> a + ring.Audit.Cycle.residue)
          0 r.Zmail.Bank.rings)
  in
  (* The cell's hard promises, checked here so a regression fails the
     experiment rather than shading a table cell. *)
  if honest_convicted > 0 then
    failwith
      (Printf.sprintf "E21 %s: %d honest conviction(s) — the detector framed \
                       a compliant ISP" label honest_convicted);
  if plan.colluders <> [] && all_convicted = None then
    failwith
      (Printf.sprintf
         "E21 %s: coalition never fully convicted (first ring: %s)" label
         (Cell.day_of first_ring));
  (* Partition cells must re-convict after the heal: the severed
     member's tampered report only reaches that round through the
     carry matrix, so a missing post-heal conviction means the carry
     path lost the coalition's trail. *)
  if plan.colluders <> [] && fl.partitioned && post_heal = None then
    failwith
      (Printf.sprintf
         "E21 %s: no full-coalition conviction after the partition healed"
         label);
  let residue = Zmail.World.epenny_residue world in
  if residue <> 0 then
    failwith
      (Printf.sprintf "E21 %s: e-penny residue %d (tampers must be \
                       balance-neutral)" label residue);
  let c = Zmail.World.counters world in
  let link = Zmail.World.link_stats world in
  {
    attempts = tally.Cell.attempts;
    paid = tally.Cell.paid;
    delivered = c.Zmail.World.ham_delivered;
    audits = List.length audits;
    deferred_rounds = Sim.Stats.Counter.value link.Zmail.World.audits_deferred;
    absences =
      Cell.sum_rounds audits (fun r -> List.length r.Zmail.Bank.absent);
    rings_found;
    ring_volume;
    first_ring;
    all_convicted;
    post_heal;
    victims_cleared;
    honest_convicted;
    tampered =
      List.fold_left (fun acc a -> acc + Zmail.Adversary.tampered a) 0 advs;
    residue;
    metrics = Obs.Metrics.to_table (Zmail.World.metrics world);
  }

let run ?obs ?persist ?(seed = 21) ?(full = false) () =
  let obs = Option.value obs ~default:Obs.Run.none in
  let persist = Option.value persist ~default:Checkpoint.none in
  let tracer = Obs.Run.tracer_or obs ~capacity:512 in
  let n_isps, users_per_isp, sends_per_user =
    if full then (40, 200, 3) else (16, 60, 3)
  in
  let plans =
    [ no_collusion; pair_plan; ring_plan 3 ]
    @ (if full then [ ring_plan 5 ] else [])
  in
  let outcomes =
    Cell.grid plans levels (fun k plan fl ->
        run_cell ~tracer ~persist ~seed:(seed + k) ~n_isps ~users_per_isp
          ~sends_per_user ~fl ~plan)
  in
  (* The 10^4-ISP row (--full): the scale §4.4 names, representable
     only sparsely.  One calm 3-ring cell — the conviction property at
     four orders of magnitude, not a fault sweep. *)
  let scale =
    if full then
      let plan = ring_plan 3 and fl = List.hd levels in
      Some
        ( plan,
          run_cell ~tracer ~persist ~seed:(seed + 97) ~n_isps:10_000
            ~users_per_isp:1 ~sends_per_user:1 ~fl ~plan )
    else None
  in
  let detection =
    Sim.Table.create
      ~title:
        (Printf.sprintf
           "E21 (collusion rings): cycle-sum detection across collusion x \
            fault cells (%d ISPs x %d users, %.0f days, audits every %g h; \
            convicted = strict majority OR cycle-ring membership; the framed \
            victim must be cleared, honest convictions must be 0, residue \
            must be 0)"
           n_isps users_per_isp days (audit_period /. hour))
      ~columns:
        [
          "collusion";
          "faults";
          "sends";
          "delivered";
          "audits";
          "deferred";
          "absences";
          "tampered";
          "rings";
          "ring volume";
          "first ring";
          "all convicted";
          "post-heal";
          "victims cleared";
          "honest convicted";
          "residue";
        ]
  in
  let add_row table label flabel (o : outcome) =
    Sim.Table.add_row table
      [
        label;
        flabel;
        Sim.Table.cell_int o.attempts;
        Sim.Table.cell_int o.delivered;
        Sim.Table.cell_int o.audits;
        Sim.Table.cell_int o.deferred_rounds;
        Sim.Table.cell_int o.absences;
        Sim.Table.cell_int o.tampered;
        Sim.Table.cell_int o.rings_found;
        Sim.Table.cell_int o.ring_volume;
        Cell.day_of o.first_ring;
        Cell.day_of o.all_convicted;
        Cell.day_of o.post_heal;
        Sim.Table.cell_int o.victims_cleared;
        Sim.Table.cell_int o.honest_convicted;
        Sim.Table.cell_int o.residue;
      ]
  in
  List.iter
    (fun (plan, fl, o) -> add_row detection plan.plabel fl.Cell.flabel o)
    outcomes;
  (match scale with
  | Some (plan, o) ->
      add_row detection (plan.plabel ^ "@10^4 isps") "calm" o
  | None -> ());
  Cell.with_metrics obs [ detection ]
    (List.map (fun (_, _, o) -> o.metrics) outcomes)
