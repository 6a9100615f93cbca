(* Turning workload runs into metric values, and printing them. *)

module O = Workload

let ms s = s *. 1e3
let us s = s *. 1e6
let ns s = s *. 1e9
let fl = float_of_int
let med f reps = Quant.median_list (List.map f reps)

(* End-to-end metrics: medians over the untraced repetitions.  Host
   times are scaled to the reference machine speed by the run's median
   calibration time (see [Quant.reference_kernel_s]): the host's speed
   drifts over minutes, so one factor per run follows it without adding
   the kernel's own repetition-to-repetition noise. *)
let end_to_end (reps : O.outcome list) =
  let per_run f = med (fun (o : O.outcome) -> f o) reps in
  let speed = Quant.reference_kernel_s /. per_run (fun o -> o.calibration_s) in
  let host f = speed *. per_run f in
  [
    ("setup_s", host (fun o -> o.setup_s));
    ("run_s", host (fun o -> o.run_s));
    ("events_per_s", per_run (fun o -> fl o.events /. o.run_s) /. speed);
    ("mail_per_s", per_run (fun o -> fl o.deliveries /. o.run_s) /. speed);
    ("slice_p50_ms", host (fun o -> ms (Quant.quantile o.slices 0.5)));
    ("slice_p99_ms", host (fun o -> ms (Quant.quantile o.slices 0.99)));
    ("alloc_words_per_event", per_run (fun o -> o.alloc_words /. fl o.events));
    ("peak_heap_mb", per_run (fun o -> fl (o.peak_heap_words * (Sys.word_size / 8)) /. 1048576.));
    ( "acct_msgs_per_kmail",
      per_run (fun o -> 1000. *. fl o.acct_msgs /. fl (max 1 o.deliveries)) );
  ]

(* Per-layer metrics from the traced run.  [plain], [traced] and
   [bare] are the untraced, traced and traced-without-invariants
   repetitions of one seed; probes replay inputs of the last traced
   world. *)
let per_layer (spec : Scenario.t) ~(plain : O.outcome list) ~(traced : O.outcome list)
    ~(bare : O.outcome list) =
  let last = List.hd (List.rev traced) in
  (* The runtime's own figures come from an untraced repetition: the
     traced one also counts the benchmark's tracing allocations. *)
  let untraced = List.hd (List.rev plain) in
  let count k = List.assoc k last.O.counts in
  let run_s = med (fun (o : O.outcome) -> o.run_s) traced in
  let plain_s = med (fun (o : O.outcome) -> o.run_s) plain in
  let bare_s = med (fun (o : O.outcome) -> o.run_s) bare in
  let q buf p = Quant.quantile (Quant.to_array buf) p in
  let tr = last.O.trace in
  let sched = last.O.schedule in
  let world = Option.get last.O.last_world in
  let served = Zmail.World.serve world <> None in
  let msgs = Probes.messages spec world sched 2000 in
  let session = Probes.session ~served msgs in
  let sessions = count "smtp.sessions" in
  let cells, verify_s, cycle_s = Probes.audit world tr.O.rows in
  let rounds = count "audit.rounds" in
  let seal, unseal, sign, verify = Probes.crypto tr.O.rows in
  let crypto_share =
    ((count "zmail.bank.msgs_in" *. (seal +. unseal)) +. (count "zmail.bank.msgs_out" *. (sign +. verify)))
    /. run_s
  in
  let push_pop, slo_record = Probes.serve world msgs in
  let frame_s, recover = Probes.wal tr.O.wal_victims in
  let recover_p q = if recover = [||] then 0. else Quant.quantile recover q in
  let n_ckpts =
    match spec.Scenario.checkpoint_every with
    | Some p -> spec.Scenario.horizon /. p
    | None -> 0.
  in
  let per_ckpt s = if n_ckpts = 0. then 0. else ms s /. n_ckpts in
  let persist_share =
    (last.O.ckpt_capture_s +. last.O.ckpt_encode_s
    +. (frame_s *. count "persist.wal.appends")
    +. (recover_p 0.5 *. fl last.O.crash_runs))
    /. run_s
  in
  let smtp_share = session *. sessions /. run_s in
  let audit_share = tr.O.audit_wall /. run_s in
  let invariant_share = (run_s -. bare_s) /. run_s in
  let slo_q p =
    match Zmail.World.serve world with
    | Some d ->
        let x = Serve.Slo.quantile (Serve.Dispatch.slo d) Serve.Slo.Paid p in
        if Float.is_nan x then 0. else x
    | None -> 0.
  in
  let attempts = count "serve.admitted" +. count "serve.refused" in
  [
    ("sim.engine.events", count "sim.engine.events");
    ("sim.engine.callback_p50_us", us (q tr.O.callback_dt 0.5));
    ("sim.engine.callback_p99_us", us (q tr.O.callback_dt 0.99));
    ("sim.engine.queue_live_max", fl tr.O.queue_live_max);
    ("sim.engine.schedule_step_ns", ns (Probes.schedule_step sched));
    ("sim.fault.dropped", count "sim.fault.dropped");
    ("sim.disk.appends", count "sim.disk.appends");
    ("sim.disk.flushes", count "sim.disk.flushes");
    ("sim.disk.bytes", count "sim.disk.bytes");
    ("sim.disk.lost_bytes", count "sim.disk.lost_bytes");
    ("smtp.sessions", sessions);
    ("smtp.bytes_sent", count "smtp.bytes_sent");
    ("smtp.bounced", count "smtp.bounced");
    ("smtp.session_us", us session);
    ("smtp.codec_ns", ns (Probes.codec msgs));
    ("smtp.share", smtp_share);
    ("zmail.send.calls", count "zmail.send.calls");
    ("zmail.send.p50_us", us (q tr.O.send_dt 0.5));
    ("zmail.send.p99_us", us (q tr.O.send_dt 0.99));
    ("zmail.isp.charge_accept_ns", ns (Probes.charge_accept spec sched));
    ("zmail.bank.msgs_in", count "zmail.bank.msgs_in");
    ("zmail.bank.msgs_out", count "zmail.bank.msgs_out");
    ("zmail.bank.retransmits", count "zmail.bank.retransmits");
    ("zmail.bank.rejects", count "zmail.bank.rejects");
    ("zmail.bank.replays_dropped", count "zmail.bank.replays_dropped");
    ("zmail.world.deferred_sends", count "zmail.world.deferred_sends");
    ( "zmail.world.deferral_max_sim_s",
      Sim.Stats.Summary.max (Zmail.World.deferral_delay world) );
    ("audit.rounds", rounds);
    ("audit.cells", fl cells);
    ("audit.verify_round_ms", ms verify_s);
    ("audit.cycle_round_ms", ms cycle_s);
    ("audit.ns_per_cell", if cells = 0 then 0. else ns verify_s /. fl cells);
    ( "audit.round_wall_ms",
      if tr.O.audit_closed = 0 then 0. else ms tr.O.audit_wall /. fl tr.O.audit_closed );
    ("audit.share", audit_share);
    ("toycrypto.seal_us", us seal);
    ("toycrypto.unseal_us", us unseal);
    ("toycrypto.rsa_sign_us", us sign);
    ("toycrypto.rsa_verify_us", us verify);
    ("toycrypto.share", crypto_share);
    ("persist.wal.appends", count "persist.wal.appends");
    ( "persist.wal.replayed",
      match List.assoc_opt "persist.wal.replayed" last.O.counts with Some x -> x | None -> 0. );
    ("persist.wal.frame_append_ns", ns frame_s);
    ("persist.wal.recover_ms_p50", ms (recover_p 0.5));
    ("persist.wal.recover_ms_p99", ms (recover_p 0.99));
    ("persist.snapshot.bytes", fl last.O.ckpt_bytes);
    ("persist.snapshot.capture_ms", per_ckpt last.O.ckpt_capture_s);
    ("persist.snapshot.encode_ms", per_ckpt last.O.ckpt_encode_s);
    ("persist.snapshot.decode_ms", ms last.O.ckpt_decode_s);
    ("persist.share", persist_share);
    ("serve.admitted", count "serve.admitted");
    ("serve.refused", count "serve.refused");
    ("serve.deferred", count "serve.deferred");
    ("serve.sessions", count "serve.sessions");
    ("serve.queue_depth_max", fl tr.O.serve_depth_max);
    ("serve.active_sessions_max", fl tr.O.serve_active_max);
    ("serve.queue_push_pop_ns", ns push_pop);
    ("serve.slo_record_ns", ns slo_record);
    ("serve.paid_p50_sim_s", slo_q 0.5);
    ("serve.paid_p99_sim_s", slo_q 0.99);
    ("serve.refused_frac_sim", if attempts = 0. then 0. else count "serve.refused" /. attempts);
    ("obs.trace.emitted", count "obs.trace.emitted");
    ("obs.invariant.checks", count "obs.invariant.checks");
    ("obs.invariant.share", invariant_share);
    ("harness.crashpoint.runs", fl last.O.crash_runs);
    ("harness.crashpoint.baseline_events", fl last.O.baseline_events);
    ( "harness.crashpoint.run_ms_p50",
      if last.O.crash_runs = 0 then 0. else ms (Quant.median last.O.slices) );
    ("gc.minor_collections", fl untraced.O.minor_gcs);
    ("gc.major_collections", fl untraced.O.major_gcs);
    ("gc.promoted_words_per_event", untraced.O.promoted_words /. fl untraced.O.events);
    ("trace.overhead_frac", (run_s /. plain_s) -. 1.);
    ( "trace.attributed_frac",
      smtp_share +. audit_share +. crypto_share +. persist_share +. invariant_share );
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let json_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v) ->
           let m = Metrics.find name in
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) m.Metrics.unit_)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body

let print_table metrics =
  List.iter
    (fun (name, v) ->
      let m = Metrics.find name in
      Printf.printf "  %-36s %16.6g %-6s %s\n" name v m.Metrics.unit_ (Metrics.kind_string m.Metrics.kind))
    metrics
