(* Replay probes: time a layer's public functions on inputs taken from
   the workload just run — its send schedule, its message shapes, its
   end-state credit rows, its WAL images and its bank payloads.  Each
   probe returns host seconds per operation (median of three batches,
   timed on the nanosecond wall clock: a batch is too short for the
   CPU clock's resolution); a probe whose input the workload never
   produced returns 0. *)

module W = Zmail.World

let batches = 3

(* Seconds per operation: [f ()] performs [ops] operations. *)
let per_op ~ops f =
  if ops = 0 then 0.
  else
    Quant.median
      (Array.init batches (fun _ -> snd (Quant.time_fine f) /. float_of_int ops))

let sample n a = Array.sub a 0 (min n (Array.length a))

(* sim: schedule + run of the workload's own send times. *)
let schedule_step (sched : Gen.schedule) =
  let at = sample 100_000 sched.Gen.at in
  per_op ~ops:(Array.length at) (fun () ->
      let e = Sim.Engine.create () in
      Array.iter (fun t -> ignore (Sim.Engine.schedule e ~at:t (fun () -> ()))) at;
      Sim.Engine.run e)

(* Messages shaped like [World.send_email]'s, between the workload's
   own sender/recipient pairs. *)
let messages (spec : Scenario.t) w (sched : Gen.schedule) n =
  Array.init (min n (Gen.length sched)) (fun k ->
      let fi, fu = Scenario.of_global spec sched.Gen.src.(k) in
      let ti, tu = Scenario.of_global spec sched.Gen.dst.(k) in
      let from = W.address w ~isp:fi ~user:fu and to_ = W.address w ~isp:ti ~user:tu in
      let m =
        Smtp.Message.make ~from ~to_:[ to_ ] ~subject:"(no subject)"
          ~date:sched.Gen.at.(k) ~body:"hello" ()
      in
      let m = Smtp.Message.add_header m "X-Sim-Label" "ham" in
      (Smtp.Envelope.v ~sender:from ~recipients:[ to_ ], Smtp.Message.mark_payment m ~epennies:1))

(* smtp: one remote delivery as the workload performs it — the
   structural fast path on the direct route, the full client/server
   dialogue on the serving path. *)
let session ~served msgs =
  per_op ~ops:(Array.length msgs) (fun () ->
      Array.iter
        (fun (env, msg) ->
          let domain =
            match Smtp.Envelope.recipients env with
            | a :: _ -> Smtp.Address.domain a
            | [] -> ""
          in
          let policy = Smtp.Server.default_policy ~local_domains:[ domain ] in
          if served then
            let server = Smtp.Server.create ~hostname:("mx." ^ domain) ~policy in
            ignore (Smtp.Client.deliver (Smtp.Client.of_server server) ~hostname:"mx.src" env msg)
          else ignore (Smtp.Server.deliver_direct ~policy env msg))
        msgs)

let codec msgs =
  let lines =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (env, _) ->
              Array.of_list
                (Smtp.Command.to_line (Smtp.Command.Mail_from (Smtp.Envelope.sender env))
                :: List.map
                     (fun a -> Smtp.Command.to_line (Smtp.Command.Rcpt_to a))
                     (Smtp.Envelope.recipients env)))
            msgs))
  in
  per_op ~ops:(Array.length lines) (fun () ->
      Array.iter
        (fun l ->
          match Smtp.Command.of_line l with
          | Ok c -> ignore (Smtp.Command.to_line c)
          | Error e -> failwith ("codec probe: " ^ e))
        lines)

(* zmail: sender-side charge plus receiver-side accept on a fresh
   kernel pair, driven by the workload's user pairs. *)
let charge_accept (spec : Scenario.t) (sched : Gen.schedule) =
  let rng = Sim.Rng.create 42 in
  let n_isps = max 2 spec.Scenario.n_isps and n_users = spec.Scenario.users_per_isp in
  let compliant = Array.make n_isps true in
  let bank = Zmail.Bank.create rng (Zmail.Bank.default_config ~n_isps ~compliant) in
  let mk i =
    Zmail.Isp.create rng
      {
        (Zmail.Isp.default_config ~index:i ~n_isps ~n_users ~compliant
           ~bank_public:(Zmail.Bank.public_key bank))
        with
        Zmail.Isp.initial_balance = 1_000_000_000;
        daily_limit = max_int;
      }
  in
  let isp0 = mk 0 and isp1 = mk 1 in
  let n = min 100_000 (Gen.length sched) in
  per_op ~ops:n (fun () ->
      for k = 0 to n - 1 do
        ignore (Zmail.Isp.charge_send isp0 ~sender:(sched.Gen.src.(k) mod n_users) ~dest_isp:1);
        ignore (Zmail.Isp.accept_delivery isp1 ~from_isp:0 ~rcpt:(sched.Gen.dst.(k) mod n_users))
      done)

(* audit: one verification round (sparse Verify) and one cycle
   detection over the credit rows the workload's fullest audit round
   read. *)
let audit w rows =
  let present = (W.config w).W.compliant in
  let cells = Workload.cells rows in
  let verify () =
    let acc = Audit.Verify.create ~expected_cells:cells ~present () in
    Array.iteri
      (fun reporter row ->
        Array.iter (fun (peer, v) -> Audit.Verify.claim acc ~reporter ~peer v) row)
      rows;
    (acc, Audit.Verify.violations acc)
  in
  if cells = 0 then (0, 0., 0.)
  else begin
    let acc, violations = verify () in
    let offenders = Audit.Verify.offenders ~present violations in
    (* About 200k claims per batch, and at most 200 rounds: a round
       also has a fixed cost, which dominates when few cells are set. *)
    let reps = max 1 (min 200 (200_000 / cells)) in
    let verify_s = per_op ~ops:reps (fun () -> for _ = 1 to reps do ignore (verify ()) done) in
    let cycle_s =
      per_op ~ops:reps (fun () ->
          for _ = 1 to reps do
            ignore
              (Audit.Cycle.detect ~violations ~offenders
                 ~connected:(Audit.Verify.consistent_nonzero acc))
          done)
    in
    (Audit.Verify.populated acc, verify_s, cycle_s)
  end

(* toycrypto: the ISP->bank path seals (buys, sells and the audit
   replies carrying the workload's own credit rows); the bank->ISP path
   signs (replies and audit requests). *)
let crypto rows =
  let rng = Sim.Rng.create 77 in
  let pk, sk = Toycrypto.Rsa.generate rng in
  let replies =
    List.filteri (fun k _ -> k < 64)
      (List.concat
         (Array.to_list
            (Array.mapi
               (fun isp credit ->
                 if Array.length credit = 0 then []
                 else
                   [
                     Zmail.Wire.Audit_reply { isp; seq = 1; credit };
                     Zmail.Wire.Buy { amount = 1000; nonce = Int64.of_int (isp + 1) };
                   ])
               rows)))
  in
  let inbound = Array.of_list replies in
  let outbound =
    Array.init 64 (fun k ->
        if k land 1 = 0 then Zmail.Wire.Buy_reply { nonce = Int64.of_int k; accepted = true }
        else Zmail.Wire.Audit_request { seq = k })
  in
  let sealed = Array.map (Zmail.Wire.seal_for_bank rng pk) inbound in
  let signed = Array.map (Zmail.Wire.sign_by_bank sk) outbound in
  let seal =
    per_op ~ops:(Array.length inbound) (fun () ->
        Array.iter (fun p -> ignore (Zmail.Wire.seal_for_bank rng pk p)) inbound)
  in
  let unseal =
    per_op ~ops:(Array.length sealed) (fun () ->
        Array.iter
          (fun s ->
            if Zmail.Wire.open_at_bank sk s = None then failwith "crypto probe: unseal")
          sealed)
  in
  let sign =
    per_op ~ops:(Array.length outbound) (fun () ->
        Array.iter (fun p -> ignore (Zmail.Wire.sign_by_bank sk p)) outbound)
  in
  let verify =
    per_op ~ops:(Array.length signed) (fun () ->
        Array.iter
          (fun s ->
            if Zmail.Wire.verify_from_bank pk s = None then failwith "crypto probe: verify")
          signed)
  in
  (seal, unseal, sign, verify)

(* serve: admission-queue push/pop with the workload's messages, and
   SLO recording at the run's own paid-latency quantiles. *)
let serve w msgs =
  match W.serve w with
  | None -> (0., 0.)
  | Some d ->
      let q = Serve.Queue.create ~capacity:16 in
      let entries =
        Array.mapi
          (fun k (envelope, message) ->
            { Serve.Queue.envelope; message; submitted = float_of_int k; attempt = 0 })
          msgs
      in
      let push_pop =
        per_op ~ops:(Array.length entries) (fun () ->
            Array.iter
              (fun e ->
                ignore (Serve.Queue.push q e);
                ignore (Serve.Queue.pop q))
              entries)
      in
      let slo = Serve.Dispatch.slo d in
      let lat =
        Array.map
          (fun p ->
            let x = Serve.Slo.quantile slo Serve.Slo.Paid p in
            if Float.is_nan x then 1. else x)
          [| 0.1; 0.5; 0.9; 0.99; 0.999 |]
      in
      let fresh = Serve.Slo.create () in
      let n = 100_000 in
      let record =
        per_op ~ops:n (fun () ->
            for k = 0 to n - 1 do
              Serve.Slo.record fresh Serve.Slo.Paid ~latency:lat.(k mod Array.length lat)
            done)
      in
      (push_pop, record)

(* persist: WAL frame+append of the delta records the crash worlds'
   victims logged (all victims' records, one device, a flush every 8 records as
   group commit does), and a full recovery of each victim's log
   ([Sim.Disk.reset_to] puts the image back first, since recovery
   compacts it).  Returns seconds per framed record and the recovery
   times. *)
let wal victims =
  let records = ref [] and recover = Quant.buf () in
  Queue.iter
    (fun (w, victim) ->
      let disk, recover_wal =
        match victim with
        | Harness.Crashpoint.Isp i ->
            let k = W.isp w i in
            (Zmail.Isp.disk k, fun () -> Zmail.Isp.recover_wal k)
        | Harness.Crashpoint.Bank ->
            let b = W.bank w in
            (Zmail.Bank.disk b, fun () -> Zmail.Bank.recover_wal b)
      in
      match disk with
      | None -> ()
      | Some disk ->
          let log = Sim.Disk.contents disk in
          (* The leading record is the log's checkpoint; the appends the
             per-layer count reports are the delta records after it. *)
          (match (Persist.Wal.scan log).Persist.Wal.records with
          | _ :: deltas -> records := deltas :: !records
          | [] -> ());
          Quant.push recover
            (snd
               (Quant.time_fine (fun () ->
                    Sim.Disk.reset_to disk log;
                    match recover_wal () with
                    | Ok () -> ()
                    | Error e -> failwith ("wal probe: " ^ e)))))
    victims;
  let records = Array.of_list (List.concat !records) in
  let frame =
    per_op ~ops:(Array.length records) (fun () ->
        let d = Sim.Disk.create (Sim.Rng.create 31) in
        Array.iteri
          (fun seq r ->
            Sim.Disk.append d (Persist.Wal.frame ~seq r);
            if seq land 7 = 7 then Sim.Disk.flush d)
          records;
        Sim.Disk.flush d)
  in
  (frame, Quant.to_array recover)
