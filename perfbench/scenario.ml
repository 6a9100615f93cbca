(* The four workloads: world configurations and send schedules.  Every
   world is built through [Zmail.World.create] from the benchmark seed;
   the shapes follow the experiments they are named after (E17, E20,
   E23), sized so one run of a world workload takes one to three
   seconds of host time on a small machine. *)

let hour = Sim.Engine.hour
let day = Sim.Engine.day

type name = Zipf_mail | Serve_knee | Audit_wide | Crash_sweep

let all = [ Zipf_mail; Serve_knee; Audit_wide; Crash_sweep ]

let to_string = function
  | Zipf_mail -> "zipf_mail"
  | Serve_knee -> "serve_knee"
  | Audit_wide -> "audit_wide"
  | Crash_sweep -> "crash_sweep"

let of_string s = List.find_opt (fun w -> to_string w = s) all

type t = {
  name : name;
  n_isps : int;
  users_per_isp : int;
  cheater : int option;  (** A [Fake_receives] ISP the audits must flag. *)
  horizon : float;  (** Simulated seconds stepped before the final drain. *)
  checkpoint_every : float option;
      (** Incremental snapshot + delta encode at this sim-time period. *)
  config : seed:int -> Zmail.World.config;
  schedule : seed:int -> Gen.schedule;
}

let universe t = t.n_isps * t.users_per_isp
let of_global t g = (g / t.users_per_isp, g mod t.users_per_isp)

let with_cheat ~cheater ~per_day i cfg =
  if Some i = cheater then { cfg with Zmail.Isp.cheat = Zmail.Isp.Fake_receives per_day }
  else cfg

(* E17's shape at 40 ISPs x 2000 users: Zipf(1.1) senders, four sends
   per user over two simulated days on the direct SMTP path, audits
   every 12 h, one cheater, population-scaled pools. *)
let zipf_mail =
  let n_isps = 40 and users_per_isp = 2000 and days = 2.0 in
  let cheater = Some 1 in
  {
    name = Zipf_mail;
    n_isps;
    users_per_isp;
    cheater;
    horizon = (days +. 0.5) *. day;
    checkpoint_every = None;
    config =
      (fun ~seed ->
        {
          (Zmail.World.default_config ~n_isps ~users_per_isp) with
          Zmail.World.seed;
          audit_period = Some (12. *. hour);
          retain_mail = false;
          customize_isp =
            (fun i cfg ->
              with_cheat ~cheater ~per_day:3 i
                {
                  cfg with
                  Zmail.Isp.daily_limit = 1_000_000;
                  initial_avail = 2 * users_per_isp;
                  minavail = users_per_isp;
                  buy_amount = 5 * users_per_isp;
                  maxavail = 20 * users_per_isp;
                });
        });
    schedule =
      (fun ~seed ->
        let universe = n_isps * users_per_isp in
        Gen.zipf ~seed ~tag:0x21bf ~universe ~n:(4 * universe)
          ~span:(0.9 *. days *. day) ~s:1.1);
  }

(* E20's serving configuration at one offered load past the knee:
   4 ISPs (ISP 3 non-compliant), 2-session lanes, 16-deep admission
   queues, E20's lossy chaos mesh; Poisson sends at 20 msg/s, open loop
   in sim time, for 1.5 simulated hours. *)
let serve_config =
  {
    Serve.Config.default with
    Serve.Config.queue_depth = 16;
    max_sessions = 2;
    rtt = (fun rng -> 0.05 +. Sim.Dist.exponential rng ~rate:8.);
    bytes_per_sec = 20_000.;
    sample_period = 30.;
  }

let serve_knee =
  let n_isps = 4 and users_per_isp = 25 in
  let duration = 1.5 *. hour and rate = 20. in
  {
    name = Serve_knee;
    n_isps;
    users_per_isp;
    cheater = None;
    horizon = duration;
    checkpoint_every = None;
    config =
      (fun ~seed ->
        {
          (Zmail.World.default_config ~n_isps ~users_per_isp) with
          Zmail.World.seed;
          compliant = Array.init n_isps (fun i -> i <> 3);
          serving = Some serve_config;
          (* Deliveries are counted and filtered but not stored: as in
             the other workloads, the heap holds the protocol's state,
             not an ever-growing mailbox archive. *)
          retain_mail = false;
          mesh_default = Sim.Fault.plan ~drop:0.08 ~delay_prob:0.15 ~delay_max:5.0 ();
          (* The chaos is on the SMTP mesh the serving path crosses; the
             ISP<->bank links (node [n_isps] is the bank) stay reliable,
             so bank traffic is the protocol's own and not a seed's
             retransmission storm. *)
          mesh_links =
            List.concat_map
              (fun i -> [ ((i, n_isps), Sim.Fault.reliable); ((n_isps, i), Sim.Fault.reliable) ])
              (List.init n_isps Fun.id);
          audit_period = Some (30. *. Sim.Engine.minute);
          pool_check_period = 60.;
          customize_isp =
            (fun _ cfg ->
              {
                cfg with
                Zmail.Isp.initial_avail = 10;
                minavail = 20;
                buy_amount = 100;
                maxavail = 120;
              });
        });
    schedule =
      (fun ~seed ->
        Gen.uniform ~seed ~tag:0x5e7e ~universe:(n_isps * users_per_isp)
          ~n:(int_of_float (rate *. duration)) ~span:duration);
  }

(* A wide, thin world: 1000 ISPs x 3 users, audits every 2 simulated
   hours for 2 days, one cheater, and an incremental checkpoint (world
   capture + snapshot delta) every 6 simulated hours. *)
let audit_wide =
  let n_isps = 1000 and users_per_isp = 3 and days = 2.0 in
  let cheater = Some 1 in
  {
    name = Audit_wide;
    n_isps;
    users_per_isp;
    cheater;
    horizon = days *. day;
    checkpoint_every = Some (6. *. hour);
    config =
      (fun ~seed ->
        {
          (Zmail.World.default_config ~n_isps ~users_per_isp) with
          Zmail.World.seed;
          audit_period = Some (2. *. hour);
          retain_mail = false;
          customize_isp =
            (fun i cfg ->
              with_cheat ~cheater ~per_day:3 i
                {
                  cfg with
                  Zmail.Isp.initial_avail = 10;
                  minavail = 20;
                  buy_amount = 50;
                  maxavail = 100;
                });
        });
    schedule =
      (fun ~seed ->
        let universe = n_isps * users_per_isp in
        Gen.uniform ~seed ~tag:0xa0d1 ~universe ~n:(30 * universe)
          ~span:(0.9 *. days *. day));
  }

(* The E23 scenario, bench-owned: disk-backed ISPs and bank (torn+rot
   fault plan, group commit 8), a dropping/duplicating bank link, lean
   pools and a resident cheater.  One world is one crash run of the
   sweep; the schedule is sized so the undisturbed run fires more than
   1000 events, i.e. the stride-1 sweep has at least 1000 crash
   points. *)
let crash_days = 1.2
let crash_downtime = 1. *. hour

let crash_sweep =
  let n_isps = 4 and users_per_isp = 10 in
  let cheater = Some 1 in
  {
    name = Crash_sweep;
    n_isps;
    users_per_isp;
    cheater;
    horizon = crash_days *. day;
    checkpoint_every = None;
    config =
      (fun ~seed ->
        {
          (Zmail.World.default_config ~n_isps ~users_per_isp) with
          Zmail.World.seed;
          audit_period = Some (6. *. hour);
          disk = Some (Sim.Disk.plan ~torn:0.6 ~rot:0.3 ());
          wal_group = 8;
          bank_fault =
            Sim.Fault.plan ~drop:0.08 ~duplicate:0.08 ~delay_prob:0.08
              ~delay_max:5. ();
          customize_isp =
            (fun i cfg ->
              with_cheat ~cheater ~per_day:2 i
                {
                  cfg with
                  Zmail.Isp.initial_avail = 150;
                  minavail = 200;
                  buy_amount = 300;
                });
        });
    schedule =
      (fun ~seed ->
        Gen.uniform ~seed ~tag:0xc5a5 ~universe:(n_isps * users_per_isp)
          ~n:460 ~span:(0.9 *. crash_days *. day));
  }

let get = function
  | Zipf_mail -> zipf_mail
  | Serve_knee -> serve_knee
  | Audit_wide -> audit_wide
  | Crash_sweep -> crash_sweep
