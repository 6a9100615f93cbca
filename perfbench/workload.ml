(* One run of a workload: set up, step through the timed phase in
   slices, drain, then check the oracles and fingerprint the simulated
   outcome.  Everything here goes through public functions of the
   program ([Zmail.World], [Harness.Crashpoint], each layer's own API);
   the benchmark's tracing lives in this file, around its own calls. *)

module W = Zmail.World

type mode = {
  traced : bool;  (** Engine monitor, send spans and gauge samples on. *)
  invariants : bool;  (** [World.attach_invariants] on every world. *)
}

let plain = { traced = false; invariants = true }
let traced = { traced = true; invariants = true }
let traced_no_invariants = { traced = true; invariants = false }

(* What the traced run records from outside the program. *)
type trace = {
  callback_dt : Quant.buf;  (** Host seconds between engine monitor calls. *)
  send_dt : Quant.buf;  (** Host seconds per [World.send_email]. *)
  mutable queue_live_max : int;
  mutable serve_depth_max : int;
  mutable serve_active_max : int;
  mutable audit_wall : float;
      (** Host seconds of the callbacks that open or close an audit round. *)
  mutable audit_closed : int;  (** Rounds seen closing by the monitor. *)
  wal_victims : (W.t * Harness.Crashpoint.victim) Queue.t;
      (** Finished crash worlds kept for the WAL recovery probe. *)
  mutable rows : (int * int) array array;
      (** The fullest set of sparse credit rows seen at an audit start. *)
}

let new_trace () =
  {
    callback_dt = Quant.buf ();
    send_dt = Quant.buf ();
    queue_live_max = 0;
    serve_depth_max = 0;
    serve_active_max = 0;
    audit_wall = 0.;
    audit_closed = 0;
    wal_victims = Queue.create ();
    rows = [||];
  }

(* Every compliant ISP's credit row as the audit would read it (sparse
   [(peer, count)] pairs); empty for non-compliant ISPs. *)
let credit_rows w =
  Array.mapi
    (fun i c ->
      if c then Audit.Row.pairs (Audit.Row.of_dense (Zmail.Isp.credit_vector (W.isp w i)))
      else [||])
    (W.config w).W.compliant

let cells rows = Array.fold_left (fun a r -> a + Array.length r) 0 rows

type outcome = {
  digest : string;
  calibration_s : float;  (** [Quant.calibrate] just before this repetition. *)
  setup_s : float;
  run_s : float;
  slices : float array;  (** Host seconds per slice. *)
  events : int;
  deliveries : int;
  acct_msgs : int;  (** ISP<->bank messages offered to the link, resends included. *)
  alloc_words : float;
  peak_heap_words : int;  (** Largest major heap seen at a slice boundary. *)
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  attempted : int;  (** Oracle-checked runs: one per world, one per crash run. *)
  failures : string list;
  counts : (string * float) list;  (** Public counters, summed over worlds. *)
  ckpt_capture_s : float;
  ckpt_encode_s : float;
  ckpt_decode_s : float;
  ckpt_bytes : int;
  crash_runs : int;
  baseline_events : int;
  trace : trace;
  last_world : W.t option;
  schedule : Gen.schedule;
}

(* ------------------------------------------------------------------ *)
(* Counters read from public accessors                                 *)
(* ------------------------------------------------------------------ *)

let compliant w = (W.config w).W.compliant

let fold_isps w f =
  let acc = ref 0 in
  Array.iteri (fun i c -> if c then acc := !acc + f (W.isp w i)) (compliant w);
  !acc

let disks w =
  let isp_disks =
    List.filter_map
      (fun i -> if (compliant w).(i) then Zmail.Isp.disk (W.isp w i) else None)
      (List.init (W.config w).W.n_isps Fun.id)
  in
  match Zmail.Bank.disk (W.bank w) with Some d -> d :: isp_disks | None -> isp_disks

let sum_disks w f = List.fold_left (fun a d -> a + f d) 0 (disks w)

let mta_sum w f =
  let n = (W.config w).W.n_isps in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + f (Smtp.Mta.stats (W.mta w i))
  done;
  !acc

let deliveries w =
  let c = W.counters w in
  c.W.ham_delivered + c.W.spam_delivered

(* Every public count the per-layer report uses, for one finished world.
   All are simulated quantities: identical for traced and untraced runs
   of one seed, so they also feed the digest. *)
let world_counts w ~checkers =
  let engine = W.engine w in
  let bank = Zmail.Bank.stats (W.bank w) in
  let link = W.link_stats w in
  let serve f = match W.serve w with Some d -> f d | None -> 0 in
  let c = W.counters w in
  let fl = float_of_int in
  [
    ("sim.engine.events", fl (Sim.Engine.events_fired engine));
    ( "sim.fault.dropped",
      fl (Sim.Fault.dropped (W.fault w) + Sim.Fault.Mesh.link_dropped (W.mesh w)) );
    ("sim.disk.appends", fl (sum_disks w Sim.Disk.appends));
    ("sim.disk.flushes", fl (sum_disks w Sim.Disk.flushes));
    ("sim.disk.bytes", fl (sum_disks w Sim.Disk.durable_size));
    ("sim.disk.lost_bytes", fl (sum_disks w Sim.Disk.lost_bytes));
    ("smtp.sessions", fl (mta_sum w (fun s -> s.Smtp.Mta.sessions)));
    ("smtp.bytes_sent", fl (mta_sum w (fun s -> s.Smtp.Mta.bytes_sent)));
    ("smtp.bounced", fl (mta_sum w (fun s -> s.Smtp.Mta.bounced)));
    ("zmail.bank.msgs_in", fl bank.Zmail.Bank.messages_in);
    ("zmail.bank.msgs_out", fl bank.Zmail.Bank.messages_out);
    ("zmail.bank.retransmits", fl (Sim.Stats.Counter.value link.W.retransmits));
    ( "zmail.bank.rejects",
      fl (List.fold_left (fun a (_, n) -> a + n) 0 bank.Zmail.Bank.rejects) );
    ("zmail.bank.replays_dropped", fl bank.Zmail.Bank.replays_dropped);
    ("zmail.world.deferred_sends", fl c.W.deferred_sends);
    ("audit.rounds", fl (List.length (W.audit_results w)));
    ( "persist.wal.appends",
      fl
        (fold_isps w Zmail.Isp.wal_appended
        + if Zmail.Bank.disk (W.bank w) <> None then Zmail.Bank.wal_appended (W.bank w) else 0) );
    ("serve.deferred", fl (serve Serve.Dispatch.deferred));
    ("serve.sessions", fl (serve Serve.Dispatch.sessions_started));
    ("obs.trace.emitted", fl (Obs.Trace.emitted (W.tracer w)));
    ( "obs.invariant.checks",
      fl (List.fold_left (fun a c -> a + Obs.Invariant.checks c) 0 checkers) );
  ]

let add_counts a b =
  if a = [] then b else List.map2 (fun (k, x) (k', y) -> assert (k = k'); (k, x +. y)) a b

(* ------------------------------------------------------------------ *)
(* Digest of the simulated outcome                                     *)
(* ------------------------------------------------------------------ *)

let fingerprint_world buf w ~counts =
  let add fmt = Printf.bprintf buf fmt in
  add "events=%d deliveries=%d residue=%d minted=%d outstanding=%d\n"
    (Sim.Engine.events_fired (W.engine w))
    (deliveries w) (W.epenny_residue w) (W.cheat_minted w)
    (Zmail.Bank.outstanding_epennies (W.bank w));
  List.iter
    (fun r ->
      let ints l = String.concat "," (List.map string_of_int l) in
      add "audit %d suspects=%s convicted=%s\n" r.Zmail.Bank.seq
        (ints r.Zmail.Bank.suspects) (ints r.Zmail.Bank.convicted))
    (W.audit_results w);
  Array.iteri
    (fun i c -> if c then add "isp%d=%d " i (Zmail.Isp.total_epennies (W.isp w i)))
    (compliant w);
  add "\n";
  (match W.serve w with
  | Some d ->
      let slo = Serve.Dispatch.slo d in
      List.iter
        (fun k -> add "serve.%s=%d " (Serve.Slo.klass_name k) (Serve.Slo.count slo k))
        Serve.Slo.classes;
      add "\n"
  | None -> ());
  List.iter (fun (k, v) -> add "%s=%.0f " k v) counts;
  add "\n"

(* ------------------------------------------------------------------ *)
(* Feeding the schedule                                                *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable paid : int;
  mutable free : int;
  mutable deferred : int;
  mutable backpressured : int;
  mutable rejected : int;
  mutable failed_down : int;
  mutable remote_submitted : int;
}

let new_tally () =
  { paid = 0; free = 0; deferred = 0; backpressured = 0; rejected = 0; failed_down = 0; remote_submitted = 0 }

let tally_string t =
  Printf.sprintf "paid=%d free=%d deferred=%d backpressured=%d rejected=%d failed_down=%d remote=%d"
    t.paid t.free t.deferred t.backpressured t.rejected t.failed_down t.remote_submitted

(* One self-rescheduling feeder event walks the schedule, so the
   pending-event heap holds one generator entry instead of the whole
   budget. *)
let feed spec w sched tally trace ~traced =
  let engine = W.engine w in
  let n = Gen.length sched in
  let send from to_ =
    if traced then begin
      let t0 = Quant.fine () in
      let r = W.send_email w ~from ~to_ () in
      Quant.push trace.send_dt (Quant.fine () -. t0);
      r
    end
    else W.send_email w ~from ~to_ ()
  in
  let rec fire k () =
    let from = Scenario.of_global spec sched.Gen.src.(k) in
    let to_ = Scenario.of_global spec sched.Gen.dst.(k) in
    (match send from to_ with
    | W.Submitted kind ->
        (match kind with `Paid -> tally.paid <- tally.paid + 1 | `Free -> tally.free <- tally.free + 1);
        if fst from <> fst to_ then tally.remote_submitted <- tally.remote_submitted + 1
    | W.Deferred_snapshot -> tally.deferred <- tally.deferred + 1
    | W.Backpressured -> tally.backpressured <- tally.backpressured + 1
    | W.Rejected _ -> tally.rejected <- tally.rejected + 1
    | W.Failed_down -> tally.failed_down <- tally.failed_down + 1);
    if k + 1 < n then ignore (Sim.Engine.schedule engine ~at:sched.Gen.at.(k + 1) (fire (k + 1)))
  in
  if n > 0 then ignore (Sim.Engine.schedule engine ~at:sched.Gen.at.(0) (fire 0))

(* The traced run's engine monitor: host time between successive
   callbacks, live-queue and serving-path gauges every 64 events, and
   the host time of the callbacks at which an audit round opens or
   closes (the bank's round state is public). *)
let install_monitor w trace =
  let engine = W.engine w in
  let bank = W.bank w in
  let serve = W.serve w in
  let last = ref (Quant.fine ()) in
  let in_audit = ref (Zmail.Bank.audit_in_progress bank) in
  let count = ref 0 in
  Sim.Engine.set_monitor engine
    (Some
       (fun ~id:_ ~at:_ ~wall:_ ->
         let t = Quant.fine () in
         let dt = t -. !last in
         last := t;
         Quant.push trace.callback_dt dt;
         let a = Zmail.Bank.audit_in_progress bank in
         if a <> !in_audit then begin
           in_audit := a;
           trace.audit_wall <- trace.audit_wall +. dt;
           if not a then trace.audit_closed <- trace.audit_closed + 1;
           (* A round just opened: the requests are still on the wire,
              so the kernels' rows are what this round will verify.
              Keep the fullest round's rows for the replay probes; the
              copy's own cost is kept out of the next callback. *)
           if a then begin
             let rows = credit_rows w in
             if cells rows > cells trace.rows then trace.rows <- rows;
             last := Quant.fine ()
           end
         end;
         incr count;
         if !count land 63 = 0 then begin
           trace.queue_live_max <- max trace.queue_live_max (Sim.Engine.live engine);
           match serve with
           | Some d ->
               trace.serve_depth_max <- max trace.serve_depth_max (Serve.Dispatch.queue_depth d);
               trace.serve_active_max <-
                 max trace.serve_active_max (Serve.Dispatch.active_sessions d)
           | None -> ()
         end))

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

let honest_convictions w ~cheater =
  List.fold_left
    (fun a r -> a + List.length (List.filter (fun i -> Some i <> cheater) r.Zmail.Bank.convicted))
    0 (W.audit_results w)

let flagged w i = List.exists (fun r -> List.mem i r.Zmail.Bank.suspects) (W.audit_results w)

(* The per-world oracles every workload shares.  Returns the failures. *)
let world_oracles (spec : Scenario.t) w ~checkers ~mode =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  let residue = W.epenny_residue w and minted = W.cheat_minted w in
  if residue <> minted then fail "residue %d <> cheat-minted %d" residue minted;
  let hc = honest_convictions w ~cheater:spec.Scenario.cheater in
  if hc <> 0 then fail "%d honest conviction(s)" hc;
  if mode.invariants then
    List.iter
      (fun c ->
        if Obs.Invariant.checks c = 0 then fail "checker %s never ran" (Obs.Invariant.name c))
      checkers;
  (match spec.Scenario.cheater with
  | None -> if residue <> 0 then fail "residue %d in a world without a cheater" residue
  | Some _ when spec.Scenario.name = Scenario.Crash_sweep ->
      (* A 1.2-day crash run mints once, at its one midnight, and a
         cheater that is down at midnight mints nothing; whether an
         audit catches it inside the horizon is not claimed either.
         The sweep checks that the cheat minted somewhere. *)
      ()
  | Some i ->
      if minted = 0 then fail "cheater minted nothing";
      if not (flagged w i) then fail "cheater isp %d never flagged" i);
  !fails

let gc_delta (g0 : Gc.stat) (g1 : Gc.stat) =
  let alloc =
    g1.Gc.minor_words -. g0.Gc.minor_words
    +. (g1.Gc.major_words -. g0.Gc.major_words)
    -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)
  in
  ( alloc,
    g1.Gc.promoted_words -. g0.Gc.promoted_words,
    g1.Gc.minor_collections - g0.Gc.minor_collections,
    g1.Gc.major_collections - g0.Gc.major_collections )

(* ------------------------------------------------------------------ *)
(* World workloads                                                     *)
(* ------------------------------------------------------------------ *)

(* Four thousand slices: with the default 256k-word minor heap, each
   workload allocates well under one minor collection's worth per slice,
   so the median slice is one without a collection.  At 1000 slices
   about half the slices held one, the median sat on the boundary
   between the two kinds, and it flipped between runs. *)
let n_slices = 4000

type ckpt = {
  mutable base : Persist.Snapshot.t option;
  mutable capture_s : float;
  mutable encode_s : float;
  mutable decode_s : float;
  mutable bytes : int;
  mutable next : float;
}

let snapshot_v ~seed ~time sections =
  Persist.Snapshot.v ~experiment:"perfbench" ~label:"audit_wide" ~seed ~time sections

(* An incremental checkpoint: capture the dirty sections, encode them
   as a delta against the first (full) capture.  With [verify] the delta
   is decoded, applied to its base and compared with a full capture of
   the same instant; the verification's host time is returned so the
   caller can keep it out of the timed phase. *)
let checkpoint ck w ~seed ~verify =
  let time = Sim.Engine.now (W.engine w) in
  let sections, capture_s = Quant.time (fun () -> W.capture_incremental w) in
  let encoded, encode_s =
    Quant.time (fun () ->
        match ck.base with
        | None ->
            let snap =
              snapshot_v ~seed ~time (List.map (fun (n, b) -> (n, Option.get b)) sections)
            in
            ck.base <- Some snap;
            Ok (Persist.Snapshot.to_string snap)
        | Some base -> (
            match
              Persist.Snapshot.delta ~base ~experiment:"perfbench" ~label:"audit_wide" ~seed
                ~time sections
            with
            | Ok d -> Ok (Persist.Snapshot.to_string d)
            | Error e -> Error e))
  in
  ck.capture_s <- ck.capture_s +. capture_s;
  ck.encode_s <- ck.encode_s +. encode_s;
  match encoded with
  | Error e -> (Some ("snapshot delta: " ^ e), 0.)
  | Ok s ->
      ck.bytes <- ck.bytes + String.length s;
      if not verify then (None, 0.)
      else
        let t0 = Quant.now () in
        let decoded, decode_s =
          Quant.time (fun () ->
              match (Persist.Snapshot.of_string s, ck.base) with
              | Ok d, Some base when Persist.Snapshot.is_delta d ->
                  Persist.Snapshot.apply_delta ~base d
              | r, _ -> r)
        in
        ck.decode_s <- decode_s;
        let err =
          match decoded with
          | Error e -> Some ("snapshot decode: " ^ e)
          | Ok snap -> (
              match Persist.Snapshot.diff snap (snapshot_v ~seed ~time (W.capture w)) with
              | Ok () -> None
              | Error e -> Some ("snapshot round trip: " ^ e))
        in
        (err, Quant.now () -. t0)

let run_world (spec : Scenario.t) ~seed ~mode =
  let trace = new_trace () in
  let tally = new_tally () in
  let t0 = Quant.now () in
  let sched = spec.Scenario.schedule ~seed in
  let w = W.create (spec.Scenario.config ~seed) in
  let checkers = if mode.invariants then W.attach_invariants w else [] in
  feed spec w sched tally trace ~traced:mode.traced;
  let setup_s = Quant.now () -. t0 in
  Gc.compact ();
  let engine = W.engine w in
  if mode.traced then install_monitor w trace;
  let fails = ref [] in
  let ck = { base = None; capture_s = 0.; encode_s = 0.; decode_s = 0.; bytes = 0; next = 0. } in
  let n_ckpts =
    match spec.Scenario.checkpoint_every with
    | Some p ->
        ck.next <- p;
        int_of_float (spec.Scenario.horizon /. p)
    | None -> 0
  in
  let taken = ref 0 in
  let excluded = ref 0. in
  let slices = Quant.buf () in
  let peak = ref 0 in
  let g0 = Gc.quick_stat () in
  let r0 = Quant.now () in
  (try
     for k = 1 to n_slices do
       let ts = Quant.now () in
       let until = spec.Scenario.horizon *. float_of_int k /. float_of_int n_slices in
       Sim.Engine.run engine ~until;
       let skip = ref 0. in
       (match spec.Scenario.checkpoint_every with
       | Some p when until >= ck.next -. 1e-6 ->
           ck.next <- ck.next +. p;
           incr taken;
           let err, verify_s = checkpoint ck w ~seed ~verify:(!taken = n_ckpts) in
           skip := verify_s;
           Option.iter (fun e -> fails := e :: !fails) err
       | _ -> ());
       excluded := !excluded +. !skip;
       Quant.push slices (Quant.now () -. ts -. !skip);
       peak := max !peak (Gc.quick_stat ()).Gc.heap_words
     done;
     let ts = Quant.now () in
     W.run_until_quiet w;
     if mode.invariants then W.check_invariants ~quiescent:true w;
     Quant.push slices (Quant.now () -. ts)
   with Obs.Invariant.Violation v ->
     fails := Format.asprintf "%a" Obs.Invariant.pp_violation v :: !fails);
  let run_s = Quant.now () -. r0 -. !excluded in
  let g1 = Gc.quick_stat () in
  Sim.Engine.set_monitor engine None;
  let counts = world_counts w ~checkers in
  let fails = !fails @ world_oracles spec w ~checkers ~mode in
  let fails = if n_ckpts > 0 && !taken <> n_ckpts then "checkpoints missed" :: fails else fails in
  List.iter Obs.Invariant.detach checkers;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (tally_string tally);
  fingerprint_world buf w ~counts;
  let alloc, promoted, minor, major = gc_delta g0 g1 in
  let counts =
    counts
    @ [
        ("zmail.send.calls", float_of_int (Gen.length sched));
        ( "serve.admitted",
          if W.serve w = None then 0. else float_of_int tally.remote_submitted );
        ("serve.refused", float_of_int tally.backpressured);
      ]
  in
  {
    digest = Digest.to_hex (Digest.string (Buffer.contents buf));
    calibration_s = 0.;
    setup_s;
    run_s;
    slices = Quant.to_array slices;
    events = Sim.Engine.events_fired engine;
    deliveries = deliveries w;
    acct_msgs = Sim.Fault.sent (W.fault w);
    alloc_words = alloc;
    peak_heap_words = !peak;
    promoted_words = promoted;
    minor_gcs = minor;
    major_gcs = major;
    attempted = 1;
    failures = fails;
    counts;
    ckpt_capture_s = ck.capture_s;
    ckpt_encode_s = ck.encode_s;
    ckpt_decode_s = ck.decode_s;
    ckpt_bytes = ck.bytes;
    crash_runs = 0;
    baseline_events = 0;
    trace;
    last_world = Some w;
    schedule = sched;
  }

(* ------------------------------------------------------------------ *)
(* The crash-point sweep                                               *)
(* ------------------------------------------------------------------ *)

(* Set-up of a sweep: generate the schedule and measure the scenario's
   undisturbed event count (the sweep's crash-point budget). *)
let crash_build (spec : Scenario.t) ~seed ~sched ~mode ~trace ~tally () =
  let w = W.create (spec.Scenario.config ~seed) in
  let checkers = if mode.invariants then W.attach_invariants w else [] in
  feed spec w sched tally trace ~traced:mode.traced;
  (w, checkers)

let crash_setup (spec : Scenario.t) ~seed ~mode =
  let sched = spec.Scenario.schedule ~seed in
  let trace = new_trace () and tally = new_tally () in
  let mode = { mode with traced = false } in
  let build () = fst (crash_build spec ~seed ~sched ~mode ~trace ~tally ()) in
  (sched, Harness.Crashpoint.baseline_events ~build ~days:Scenario.crash_days)

let wal_probe_every = 10

let run_crash (spec : Scenario.t) ~seed ~mode =
  let trace = new_trace () in
  let tally = new_tally () in
  let t0 = Quant.now () in
  let sched, baseline = crash_setup spec ~seed ~mode in
  let setup_s = Quant.now () -. t0 in
  Gc.compact ();
  let n_isps = spec.Scenario.n_isps in
  let cheater = spec.Scenario.cheater in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  let slices = Quant.buf () in
  let counts = ref [] in
  let buf = Buffer.create 65536 in
  let events = ref 0 and deliveries_ = ref 0 and acct = ref 0 and minted = ref 0 in
  let built = ref 0 in
  let prev = ref None and last_world = ref None in
  let last = ref (Quant.now ()) in
  (* A world is finished when the sweep builds the next one (or
     returns): read its counters, fingerprint it, run its oracles. *)
  let finish () =
    match !prev with
    | None -> ()
    | Some (w, checkers, index) ->
        prev := None;
        last_world := Some w;
        let c = world_counts w ~checkers in
        counts := add_counts !counts c;
        events := !events + Sim.Engine.events_fired (W.engine w);
        deliveries_ := !deliveries_ + deliveries w;
        acct := !acct + Sim.Fault.sent (W.fault w);
        minted := !minted + W.cheat_minted w;
        fingerprint_world buf w ~counts:c;
        List.iter (fun f -> fail "run %d: %s" index f) (world_oracles spec w ~checkers ~mode);
        List.iter Obs.Invariant.detach checkers;
        (* Run [index] (1-based after the baseline) crashed victim
           [(index - 1) mod (n_isps + 1)], the sweep's rotation. *)
        if mode.traced && index > 0 && index mod wal_probe_every = 0 then begin
          let v = (index - 1) mod (n_isps + 1) in
          Queue.push
            (w, if v = n_isps then Harness.Crashpoint.Bank else Harness.Crashpoint.Isp v)
            trace.wal_victims
        end
  in
  let peak = ref 0 in
  let build () =
    let t = Quant.now () in
    if !built > 1 then Quant.push slices (t -. !last);
    peak := max !peak (Gc.quick_stat ()).Gc.heap_words;
    last := t;
    finish ();
    let w, checkers = crash_build spec ~seed ~sched ~mode ~trace ~tally () in
    if mode.traced && !built = 0 then install_monitor w trace;
    prev := Some (w, checkers, !built);
    incr built;
    w
  in
  let g0 = Gc.quick_stat () in
  let r0 = Quant.now () in
  let report =
    try
      Some
        (Harness.Crashpoint.sweep ~build ~days:Scenario.crash_days
           ~downtime:Scenario.crash_downtime
           ~honest:(fun i -> Some i <> cheater)
           ~n_isps ~stride:1 ())
    with Obs.Invariant.Violation v ->
      fail "%s" (Format.asprintf "%a" Obs.Invariant.pp_violation v);
      None
  in
  let t = Quant.now () in
  if !built > 1 then Quant.push slices (t -. !last);
  finish ();
  let run_s = Quant.now () -. r0 in
  let g1 = Gc.quick_stat () in
  let runs =
    match report with
    | None -> []
    | Some r ->
        if r.Harness.Crashpoint.baseline_events <> baseline then
          fail "baseline events %d <> set-up count %d" r.Harness.Crashpoint.baseline_events baseline;
        r.Harness.Crashpoint.runs
  in
  if !minted = 0 then fail "the resident cheater never minted";
  if List.length runs < 1000 then fail "only %d crash points (need >= 1000)" (List.length runs);
  List.iter
    (fun (x : Harness.Crashpoint.run_report) ->
      let who = Harness.Crashpoint.victim_to_string x.victim in
      if not x.crashed then fail "p%d %s: crash never fired" x.point who;
      if not x.recovered then fail "p%d %s: not recovered" x.point who;
      if x.fallbacks <> 0 then fail "p%d %s: %d WAL fallback(s)" x.point who x.fallbacks;
      if not x.conserved then fail "p%d %s: residue %d <> minted %d" x.point who x.residue x.minted;
      if x.false_convictions <> 0 then fail "p%d %s: honest conviction" x.point who;
      Printf.bprintf buf "p%d %s t=%.6f replayed=%d torn=%d lost=%d residue=%d\n" x.point who
        x.crash_time x.wal_replayed x.torn_tails x.lost_bytes x.residue)
    runs;
  Buffer.add_string buf (tally_string tally);
  let alloc, promoted, minor, major = gc_delta g0 g1 in
  let replayed =
    List.fold_left (fun a (x : Harness.Crashpoint.run_report) -> a + x.wal_replayed) 0 runs
  in
  let counts =
    !counts
    @ [
        ("zmail.send.calls", float_of_int (Gen.length sched * !built));
        ("serve.admitted", 0.);
        ("serve.refused", 0.);
        ("persist.wal.replayed", float_of_int replayed);
      ]
  in
  {
    digest = Digest.to_hex (Digest.string (Buffer.contents buf));
    calibration_s = 0.;
    setup_s;
    run_s;
    slices = Quant.to_array slices;
    events = !events;
    deliveries = !deliveries_;
    acct_msgs = !acct;
    alloc_words = alloc;
    peak_heap_words = !peak;
    promoted_words = promoted;
    minor_gcs = minor;
    major_gcs = major;
    attempted = List.length runs;
    failures = List.rev !fails;
    counts;
    ckpt_capture_s = 0.;
    ckpt_encode_s = 0.;
    ckpt_decode_s = 0.;
    ckpt_bytes = 0;
    crash_runs = List.length runs;
    baseline_events = baseline;
    trace;
    last_world = !last_world;
    schedule = sched;
  }

let run (spec : Scenario.t) ~seed ~mode =
  let calibration_s = Quant.calibrate () in
  let o =
    match spec.Scenario.name with
    | Scenario.Crash_sweep -> run_crash spec ~seed ~mode
    | _ -> run_world spec ~seed ~mode
  in
  { o with calibration_s }
