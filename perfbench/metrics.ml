(* The benchmark's metric catalogue: every name it can report, with its
   unit, whether it measures the host (what the simulator costs) or the
   sim (what the modelled Zmail system does), and the layer it belongs
   to.  BENCHMARK.json lists the same names; the self-test keeps the
   two in step. *)

type kind = Host | Sim
type section = End_to_end | Per_layer

type t = { name : string; unit_ : string; kind : kind; section : section; layer : string }

let e2e name unit_ kind = { name; unit_; kind; section = End_to_end; layer = "e2e" }
let layer layer name unit_ kind = { name; unit_; kind; section = Per_layer; layer }

let end_to_end =
  [
    e2e "setup_s" "s" Host;
    e2e "run_s" "s" Host;
    e2e "events_per_s" "1/s" Host;
    e2e "mail_per_s" "1/s" Host;
    e2e "slice_p50_ms" "ms" Host;
    e2e "slice_p99_ms" "ms" Host;
    e2e "alloc_words_per_event" "words" Host;
    e2e "peak_heap_mb" "MiB" Host;
    e2e "acct_msgs_per_kmail" "count" Sim;
  ]

let per_layer =
  let sim = layer "sim" and smtp = layer "smtp" and zmail = layer "zmail" in
  let audit = layer "audit" and crypto = layer "toycrypto" in
  let persist = layer "persist" and serve = layer "serve" and obs = layer "obs" in
  let harness = layer "harness" and runtime = layer "runtime" and trace = layer "trace" in
  [
    sim "sim.engine.events" "count" Sim;
    sim "sim.engine.callback_p50_us" "us" Host;
    sim "sim.engine.callback_p99_us" "us" Host;
    sim "sim.engine.queue_live_max" "count" Sim;
    sim "sim.engine.schedule_step_ns" "ns" Host;
    sim "sim.fault.dropped" "count" Sim;
    sim "sim.disk.appends" "count" Sim;
    sim "sim.disk.flushes" "count" Sim;
    sim "sim.disk.bytes" "bytes" Sim;
    sim "sim.disk.lost_bytes" "bytes" Sim;
    smtp "smtp.sessions" "count" Sim;
    smtp "smtp.bytes_sent" "bytes" Sim;
    smtp "smtp.bounced" "count" Sim;
    smtp "smtp.session_us" "us" Host;
    smtp "smtp.codec_ns" "ns" Host;
    smtp "smtp.share" "ratio" Host;
    zmail "zmail.send.calls" "count" Sim;
    zmail "zmail.send.p50_us" "us" Host;
    zmail "zmail.send.p99_us" "us" Host;
    zmail "zmail.isp.charge_accept_ns" "ns" Host;
    zmail "zmail.bank.msgs_in" "count" Sim;
    zmail "zmail.bank.msgs_out" "count" Sim;
    zmail "zmail.bank.retransmits" "count" Sim;
    zmail "zmail.bank.rejects" "count" Sim;
    zmail "zmail.bank.replays_dropped" "count" Sim;
    zmail "zmail.world.deferred_sends" "count" Sim;
    zmail "zmail.world.deferral_max_sim_s" "s" Sim;
    audit "audit.rounds" "count" Sim;
    audit "audit.cells" "count" Sim;
    audit "audit.verify_round_ms" "ms" Host;
    audit "audit.cycle_round_ms" "ms" Host;
    audit "audit.ns_per_cell" "ns" Host;
    audit "audit.round_wall_ms" "ms" Host;
    audit "audit.share" "ratio" Host;
    crypto "toycrypto.seal_us" "us" Host;
    crypto "toycrypto.unseal_us" "us" Host;
    crypto "toycrypto.rsa_sign_us" "us" Host;
    crypto "toycrypto.rsa_verify_us" "us" Host;
    crypto "toycrypto.share" "ratio" Host;
    persist "persist.wal.appends" "count" Sim;
    persist "persist.wal.replayed" "count" Sim;
    persist "persist.wal.frame_append_ns" "ns" Host;
    persist "persist.wal.recover_ms_p50" "ms" Host;
    persist "persist.wal.recover_ms_p99" "ms" Host;
    persist "persist.snapshot.bytes" "bytes" Sim;
    persist "persist.snapshot.capture_ms" "ms" Host;
    persist "persist.snapshot.encode_ms" "ms" Host;
    persist "persist.snapshot.decode_ms" "ms" Host;
    persist "persist.share" "ratio" Host;
    serve "serve.admitted" "count" Sim;
    serve "serve.refused" "count" Sim;
    serve "serve.deferred" "count" Sim;
    serve "serve.sessions" "count" Sim;
    serve "serve.queue_depth_max" "count" Sim;
    serve "serve.active_sessions_max" "count" Sim;
    serve "serve.queue_push_pop_ns" "ns" Host;
    serve "serve.slo_record_ns" "ns" Host;
    serve "serve.paid_p50_sim_s" "s" Sim;
    serve "serve.paid_p99_sim_s" "s" Sim;
    serve "serve.refused_frac_sim" "ratio" Sim;
    obs "obs.trace.emitted" "count" Sim;
    obs "obs.invariant.checks" "count" Sim;
    obs "obs.invariant.share" "ratio" Host;
    harness "harness.crashpoint.runs" "count" Sim;
    harness "harness.crashpoint.baseline_events" "count" Sim;
    harness "harness.crashpoint.run_ms_p50" "ms" Host;
    runtime "gc.minor_collections" "count" Host;
    runtime "gc.major_collections" "count" Host;
    runtime "gc.promoted_words_per_event" "words" Host;
    trace "trace.overhead_frac" "ratio" Host;
    trace "trace.attributed_frac" "ratio" Host;
  ]

let all = end_to_end @ per_layer
let find name = List.find (fun m -> m.name = name) all
let kind_string = function Host -> "host" | Sim -> "sim"

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s
