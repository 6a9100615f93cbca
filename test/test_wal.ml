(* The durable-WAL layer (E23's substrate): Persist.Wal framing
   properties, the Sim.Disk fault-injected device, and kernel-level
   crash/replay equivalence.  The framing properties are the recovery
   soundness argument run in anger: every prefix of a log is
   recoverable, every single-bit flip is detected, a torn final record
   is always truncated — so recovery can trust everything scan
   returns. *)

let qtest = QCheck_alcotest.to_alcotest
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Persist.Wal framing properties                                      *)
(* ------------------------------------------------------------------ *)

let payload_gen = QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 24))

let log_gen =
  QCheck.Gen.(list_size (int_range 1 6) payload_gen)

let log_arb = QCheck.make ~print:(fun ps -> String.concat "," (List.map String.escaped ps)) log_gen

let build_log payloads =
  String.concat "" (List.mapi (fun seq p -> Persist.Wal.frame ~seq p) payloads)

let is_prefix_of ~prefix l =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | a :: ta, b :: tb -> String.equal a b && go (ta, tb)
  in
  go (prefix, l)

(* Every-prefix recoverability: cut the log at EVERY byte boundary;
   scan returns exactly the records wholly inside the cut, reports the
   clean byte count to truncate to, and never raises.  This is the
   power-cut case with no torn fragment — the device lost an arbitrary
   unflushed suffix. *)
let prefix_recoverable =
  QCheck.Test.make ~name:"wal: every prefix of a log is recoverable" ~count:60
    log_arb
    (fun payloads ->
      let log = build_log payloads in
      let frame_ends =
        (* Cumulative end offset of each frame. *)
        let acc = ref 0 in
        List.mapi
          (fun seq p ->
            acc := !acc + String.length (Persist.Wal.frame ~seq p);
            !acc)
          payloads
      in
      let ok = ref true in
      for cut = 0 to String.length log do
        let s = Persist.Wal.scan (String.sub log 0 cut) in
        let expected_records =
          List.length (List.filter (fun e -> e <= cut) frame_ends)
        in
        let expected_clean =
          List.fold_left (fun a e -> if e <= cut then max a e else a) 0 frame_ends
        in
        ok :=
          !ok
          && List.length s.Persist.Wal.records = expected_records
          && is_prefix_of ~prefix:s.Persist.Wal.records payloads
          && s.Persist.Wal.clean_bytes = expected_clean
          && (if cut = expected_clean then s.Persist.Wal.verdict = Persist.Wal.Clean
              else
                match s.Persist.Wal.verdict with
                | Persist.Wal.Torn o -> o = expected_clean
                | _ -> false)
      done;
      !ok)

(* Every-bit-flip detection: flip each bit of the log in turn.  The
   damaged frame (and everything after it — sequence numbers chain the
   frames) must drop out; records before it survive untouched.  This is
   the bit-rot case: CRC-32 detects every single-bit error, and a flip
   that rewrites a length field turns into a torn or corrupt verdict,
   never a silently different record. *)
let bitflip_detected =
  QCheck.Test.make ~name:"wal: every single-bit flip is detected" ~count:25
    log_arb
    (fun payloads ->
      let log = build_log payloads in
      let n = List.length payloads in
      let ok = ref true in
      for bit = 0 to (8 * String.length log) - 1 do
        let bad = Bytes.of_string log in
        let byte = bit / 8 in
        Bytes.set bad byte
          (Char.chr (Char.code (Bytes.get bad byte) lxor (1 lsl (bit mod 8))));
        let s = Persist.Wal.scan (Bytes.to_string bad) in
        ok :=
          !ok
          && s.Persist.Wal.verdict <> Persist.Wal.Clean
          && List.length s.Persist.Wal.records < n
          && is_prefix_of ~prefix:s.Persist.Wal.records payloads
      done;
      !ok)

(* Torn final record: any strict prefix of a trailing frame appended to
   an intact log is detected as Torn exactly at the intact boundary —
   recovery keeps every complete record and truncates the fragment. *)
let torn_final_truncated =
  QCheck.Test.make ~name:"wal: torn final record always detected and truncated"
    ~count:60
    QCheck.(pair log_arb (make payload_gen))
    (fun (payloads, extra) ->
      let log = build_log payloads in
      let tail = Persist.Wal.frame ~seq:(List.length payloads) extra in
      let ok = ref true in
      for keep = 1 to String.length tail - 1 do
        let s = Persist.Wal.scan (log ^ String.sub tail 0 keep) in
        ok :=
          !ok
          && s.Persist.Wal.records = payloads
          && s.Persist.Wal.clean_bytes = String.length log
          && s.Persist.Wal.verdict = Persist.Wal.Torn (String.length log)
      done;
      !ok)

(* Splicing: a record carrying the wrong sequence number is Corrupt,
   even though its CRC is self-consistent — replayed or reordered
   frames cannot graft onto a foreign log. *)
let splice_rejected () =
  let a = Persist.Wal.frame ~seq:0 "alpha" in
  let b = Persist.Wal.frame ~seq:1 "beta" in
  let c_wrong = Persist.Wal.frame ~seq:3 "gamma" in
  let s = Persist.Wal.scan (a ^ b ^ c_wrong) in
  (match s.Persist.Wal.verdict with
  | Persist.Wal.Corrupt o -> checki "corrupt at splice" (String.length (a ^ b)) o
  | _ -> Alcotest.fail "spliced frame accepted");
  checki "two records survive" 2 (List.length s.Persist.Wal.records);
  (* A duplicated frame is equally a sequence violation. *)
  let s = Persist.Wal.scan (a ^ b ^ b) in
  checkb "duplicate frame rejected" true
    (s.Persist.Wal.verdict <> Persist.Wal.Clean)

(* ------------------------------------------------------------------ *)
(* Sim.Disk: the fault-injected device                                 *)
(* ------------------------------------------------------------------ *)

let disk_semantics () =
  let d = Sim.Disk.create (Sim.Rng.create 7) in
  Sim.Disk.append d "hello ";
  Sim.Disk.append d "world";
  checki "nothing durable before flush" 0 (Sim.Disk.durable_size d);
  checki "tail holds appends" 11 (Sim.Disk.tail_size d);
  Sim.Disk.flush d;
  Alcotest.(check string) "flush acknowledges" "hello world" (Sim.Disk.contents d);
  Sim.Disk.append d "lost";
  Sim.Disk.power_cut d;
  Alcotest.(check string) "reliable cut loses exactly the tail" "hello world"
    (Sim.Disk.contents d);
  checki "cut counted" 1 (Sim.Disk.power_cuts d);
  checki "lost bytes counted" 4 (Sim.Disk.lost_bytes d);
  checki "no torn tail on a reliable plan" 0 (Sim.Disk.torn_tails d);
  Sim.Disk.reset_to d "fresh";
  Alcotest.(check string) "reset_to replaces durable contents" "fresh"
    (Sim.Disk.contents d);
  checki "reset_to discards the tail" 0 (Sim.Disk.tail_size d)

let disk_torn_strict_prefix () =
  (* With torn probability 1 every power cut leaves a fragment, and the
     fragment is always a strict prefix of the unflushed tail. *)
  let d = Sim.Disk.create ~plan:(Sim.Disk.plan ~torn:1.0 ()) (Sim.Rng.create 11) in
  let tail = "0123456789abcdef" in
  let torn = ref 0 in
  for _ = 1 to 50 do
    let base = Sim.Disk.contents d in
    Sim.Disk.append d tail;
    Sim.Disk.power_cut d;
    let c = Sim.Disk.contents d in
    let frag = String.sub c (String.length base) (String.length c - String.length base) in
    checkb "fragment is a strict prefix" true
      (String.length frag < String.length tail
      && String.equal frag (String.sub tail 0 (String.length frag)));
    incr torn
  done;
  (* The counter tracks the fault firing, so a torn roll that drew an
     empty fragment still counts. *)
  checki "every torn cut counted" !torn (Sim.Disk.torn_tails d);
  (* An empty-tail power cut damages nothing but is still a crash. *)
  let cuts = Sim.Disk.power_cuts d in
  Sim.Disk.power_cut d;
  checki "empty-tail cut counted" (cuts + 1) (Sim.Disk.power_cuts d)

let disk_state_roundtrip () =
  let drive d =
    Sim.Disk.append d "abc";
    Sim.Disk.flush d;
    Sim.Disk.append d "defgh";
    Sim.Disk.power_cut d;
    Sim.Disk.append d "tail-in-flight"
  in
  let d = Sim.Disk.create ~plan:(Sim.Disk.plan ~torn:0.7 ~rot:0.4 ()) (Sim.Rng.create 13) in
  drive d;
  let img = Persist.Codec.to_string (fun w () -> Sim.Disk.encode_state w d) () in
  let d2 = Sim.Disk.create ~plan:(Sim.Disk.plan ~torn:0.7 ~rot:0.4 ()) (Sim.Rng.create 99) in
  (match Persist.Codec.decode (fun r -> Sim.Disk.restore_state r d2) img with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore failed: %s" e);
  let img2 = Persist.Codec.to_string (fun w () -> Sim.Disk.encode_state w d2) () in
  checkb "device state snapshots byte-identically" true (String.equal img img2);
  (* The restored RNG stream continues identically: the next faulty
     power cut makes the same decisions on both devices. *)
  Sim.Disk.power_cut d;
  Sim.Disk.power_cut d2;
  checkb "restored stream reproduces fault decisions" true
    (String.equal
       (Persist.Codec.to_string (fun w () -> Sim.Disk.encode_state w d) ())
       (Persist.Codec.to_string (fun w () -> Sim.Disk.encode_state w d2) ()))

(* ------------------------------------------------------------------ *)
(* Kernel WAL: crash replay equivalence and conservation               *)
(* ------------------------------------------------------------------ *)

(* A disk-backed kernel driven by a random op sequence.  Ops cover the
   logged transitions a kernel can perform without a bank on the other
   end: charges, deliveries (stamped and not), refunds of real charges,
   user top-ups, pool requests (RNG + nonce draws), end-of-day resets
   and warning drains. *)
let drive_ops k ops =
  let paid = ref 0 in
  List.iter
    (fun op ->
      match op mod 8 with
      | 0 | 1 -> (
          match Zmail.Isp.charge_send k ~sender:(op mod 3) ~dest_isp:1 with
          | Zmail.Isp.Sent_paid -> incr paid
          | _ -> ())
      | 2 -> ignore (Zmail.Isp.accept_delivery k ~from_isp:1 ~rcpt:(op mod 3))
      | 3 ->
          ignore
            (Zmail.Isp.accept_delivery_stamped k ~sender_epoch:(Some 0)
               ~from_isp:2 ~rcpt:(op mod 3))
      | 4 ->
          if !paid > 0 then begin
            decr paid;
            Zmail.Isp.refund_send k ~sender:(op mod 3) ~dest_isp:1
          end
      | 5 -> ignore (Zmail.Isp.user_topup k ~user:(op mod 3) ~amount:5)
      | 6 -> ignore (Zmail.Isp.pool_action k)
      | _ ->
          Zmail.Isp.end_of_day k;
          ignore (Zmail.Isp.limit_warnings k))
    ops

let mk_wal_kernel ~seed ~plan ~wal_group () =
  let rng = Sim.Rng.create seed in
  let compliant = [| true; true; true |] in
  let bank = Zmail.Bank.create rng (Zmail.Bank.default_config ~n_isps:3 ~compliant) in
  let disk = Sim.Disk.create ~plan (Sim.Rng.create (seed + 7)) in
  ( Zmail.Isp.create ~disk ~wal_group rng
      {
        (Zmail.Isp.default_config ~index:0 ~n_isps:3 ~n_users:3 ~compliant
           ~bank_public:(Zmail.Bank.public_key bank))
        with
        Zmail.Isp.minavail = 500;
        maxavail = 1500;
        initial_avail = 1000;
        buy_amount = 400;
      },
    rng )

(* With group commit 1 on a reliable device every record is flushed, so
   WAL replay must reproduce the pre-crash kernel bit for bit — the
   same bytes an image restore of the crash-instant durable image
   yields.  This is the strongest replay-correctness statement: the two
   durability models agree exactly where their guarantees overlap. *)
let replay_equals_image =
  QCheck.Test.make
    ~name:"isp wal: group-1 replay == crash-instant image restore" ~count:40
    QCheck.(pair small_nat (list (int_bound 7)))
    (fun (seed, ops) ->
      let a, _ = mk_wal_kernel ~seed ~plan:Sim.Disk.reliable ~wal_group:1 () in
      drive_ops a ops;
      let image_pre = Zmail.Isp.durable_image a in
      Zmail.Isp.power_cut a;
      (match Zmail.Isp.recover_wal a with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "recover_wal failed: %s" e);
      let b, _ = mk_wal_kernel ~seed ~plan:Sim.Disk.reliable ~wal_group:1 () in
      (match Zmail.Isp.recover b ~image:image_pre with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "image recover failed: %s" e);
      String.equal (Zmail.Isp.durable_image a) (Zmail.Isp.durable_image b))

(* Under lazy group commit on a hostile device (torn tails, bit rot),
   recovery may rewind counter-only records — but never a penny: every
   money-moving record flushes before its effect can be observed, so
   total e-pennies survive any crash point exactly. *)
let conservation_across_crash =
  QCheck.Test.make
    ~name:"isp wal: faulty-disk crash conserves money at any group size"
    ~count:60
    QCheck.(triple small_nat (int_range 1 8) (list (int_bound 7)))
    (fun (seed, wal_group, ops) ->
      let plan = Sim.Disk.plan ~torn:0.8 ~rot:0.5 () in
      let k, _ = mk_wal_kernel ~seed ~plan ~wal_group () in
      drive_ops k ops;
      let money = Zmail.Isp.total_epennies k in
      let appended = Zmail.Isp.wal_appended k in
      Zmail.Isp.power_cut k;
      match Zmail.Isp.recover_wal k with
      | Error e -> QCheck.Test.fail_reportf "recover_wal failed: %s" e
      | Ok () ->
          Zmail.Isp.total_epennies k = money
          && Zmail.Isp.wal_replayed k <= appended
          && Zmail.Isp.stats_crashes k = 1)

(* Compaction: once the delta count crosses the threshold the log is
   rewritten as a fresh checkpoint; recovery from the compacted log
   still lands on the live state. *)
let wal_compaction () =
  let k, _ = mk_wal_kernel ~seed:5 ~plan:Sim.Disk.reliable ~wal_group:1 () in
  for i = 0 to 699 do
    ignore (Zmail.Isp.charge_send k ~sender:(i mod 3) ~dest_isp:1);
    ignore (Zmail.Isp.accept_delivery k ~from_isp:1 ~rcpt:(i mod 3))
  done;
  checkb "enough deltas to force compaction" true (Zmail.Isp.wal_appended k > 512);
  let image_pre = Zmail.Isp.durable_image k in
  Zmail.Isp.power_cut k;
  (match Zmail.Isp.recover_wal k with
  | Ok () -> ()
  | Error e -> Alcotest.failf "recover_wal failed: %s" e);
  checkb "few records replayed after compaction" true
    (Zmail.Isp.wal_replayed k < 512);
  (* Replay crossed a compaction boundary and still matches the
     crash-instant state (modulo the crash counter the recovery adds,
     which the fresh-image path adds identically). *)
  let b, _ = mk_wal_kernel ~seed:5 ~plan:Sim.Disk.reliable ~wal_group:1 () in
  (match Zmail.Isp.recover b ~image:image_pre with
  | Ok () -> ()
  | Error e -> Alcotest.failf "image recover failed: %s" e);
  checkb "compacted replay equals image restore" true
    (String.equal (Zmail.Isp.durable_image k) (Zmail.Isp.durable_image b))

(* The bank's WAL: log the inputs, replay the messages — the reply
   cache must rebuild byte-identically so a post-crash retransmission
   is answered from cache instead of double-billed. *)
let bank_wal_replay () =
  let rng = Sim.Rng.create 21 in
  let compliant = [| true; true |] in
  let disk = Sim.Disk.create (Sim.Rng.create 22) in
  let bank =
    Zmail.Bank.create ~disk rng (Zmail.Bank.default_config ~n_isps:2 ~compliant)
  in
  let kernels =
    Array.init 2 (fun i ->
        Zmail.Isp.create rng
          {
            (Zmail.Isp.default_config ~index:i ~n_isps:2 ~n_users:2 ~compliant
               ~bank_public:(Zmail.Bank.public_key bank))
            with
            Zmail.Isp.minavail = 500;
            maxavail = 1500;
            initial_avail = 100;
            buy_amount = 400;
          })
  in
  (* Drive a buy from ISP 0 through the bank, crash the bank before the
     reply is applied, and retransmit: the replayed reply cache must
     absorb the duplicate. *)
  let sealed =
    match Zmail.Isp.pool_action kernels.(0) with
    | Some s -> s
    | None -> Alcotest.fail "expected a buy request"
  in
  let reply =
    match Zmail.Bank.on_isp_message bank ~from_isp:0 sealed with
    | Zmail.Bank.Reply r -> r
    | _ -> Alcotest.fail "expected a reply"
  in
  let account_after = Zmail.Bank.account_balance bank ~isp:0 in
  let other_after = Zmail.Bank.account_balance bank ~isp:1 in
  let outstanding_after = Zmail.Bank.outstanding_epennies bank in
  Zmail.Bank.power_cut bank;
  (match Zmail.Bank.recover_wal bank with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bank recover_wal failed: %s" e);
  checki "account survives the crash" account_after
    (Zmail.Bank.account_balance bank ~isp:0);
  checki "bystander account survives the crash" other_after
    (Zmail.Bank.account_balance bank ~isp:1);
  checki "outstanding survives the crash" outstanding_after
    (Zmail.Bank.outstanding_epennies bank);
  (* Retransmit the same sealed buy: answered from the replayed cache,
     no second debit. *)
  let reply2 =
    match Zmail.Bank.on_isp_message bank ~from_isp:0 sealed with
    | Zmail.Bank.Reply r -> r
    | _ -> Alcotest.fail "expected a cached reply"
  in
  checki "no double debit on retransmission" account_after
    (Zmail.Bank.account_balance bank ~isp:0);
  checkb "duplicate answered with the original reply" true (reply = reply2);
  checkb "replay counted" true
    ((Zmail.Bank.stats bank).Zmail.Bank.replays_dropped >= 1);
  (* The ISP applies exactly one of the two replies. *)
  ignore (Zmail.Isp.on_bank_message kernels.(0) reply);
  let pool_after = Zmail.Isp.total_epennies kernels.(0) in
  ignore (Zmail.Isp.on_bank_message kernels.(0) reply2);
  checki "kernel ignores the duplicate reply" pool_after
    (Zmail.Isp.total_epennies kernels.(0))

(* The bank's counterpart of the ISP group-1 law.  A random stream of
   ISP-origin buys and sells (fresh nonces and retransmitted ones),
   audit-round starts with random exclusions, audit replies (which may
   close the round and checkpoint the log), request re-issues and
   unreadable messages, all through a disk-backed bank on a reliable
   device.  Every bank record flushes, so recovery must land on exactly
   the crash-instant image — the one an image restore installs. *)
let mk_wal_bank ~seed ~disk =
  let rng = Sim.Rng.create seed in
  Zmail.Bank.create ?disk rng
    (Zmail.Bank.default_config ~n_isps:3 ~compliant:[| true; true; true |])

let drive_bank bank ~seed ops =
  let rng = Sim.Rng.create (seed + 1000) in
  let pk = Zmail.Bank.public_key bank in
  let sealed payload = Zmail.Wire.seal_for_bank rng pk payload in
  let sent = ref [] in
  let nonce = ref 0L in
  List.iter
    (fun op ->
      let isp = op / 8 mod 3 in
      match op mod 8 with
      | 0 | 1 ->
          nonce := Int64.succ !nonce;
          let payload =
            if op mod 8 = 0 then Zmail.Wire.Buy { amount = 1 + (op mod 50); nonce = !nonce }
            else Zmail.Wire.Sell { amount = 1 + (op mod 20); nonce = !nonce }
          in
          let m = sealed payload in
          sent := (isp, m) :: !sent;
          ignore (Zmail.Bank.on_isp_message bank ~from_isp:isp m)
      | 2 -> (
          (* Retransmit an earlier request: answered from the cache. *)
          match !sent with
          | (i, m) :: _ -> ignore (Zmail.Bank.on_isp_message bank ~from_isp:i m)
          | [] -> ())
      | 3 ->
          if not (Zmail.Bank.audit_in_progress bank) then
            ignore
              (Zmail.Bank.start_audit
                 ~except:(if op mod 5 = 0 then [ isp ] else [])
                 bank)
      | 4 | 5 -> (
          match Zmail.Bank.audit_round bank with
          | Some seq ->
              let credit = [| ((isp + 1) mod 3, op mod 4) |] in
              ignore
                (Zmail.Bank.on_isp_message bank ~from_isp:isp
                   (sealed (Zmail.Wire.Audit_reply { isp; seq; credit })))
          | None -> ())
      | 6 -> ignore (Zmail.Bank.resend_audit_request bank ~isp)
      | _ ->
          (* Sealed to a different key: unreadable, rejected, logged. *)
          let stranger = Zmail.Bank.public_key (mk_wal_bank ~seed:(seed + 1) ~disk:None) in
          ignore
            (Zmail.Bank.on_isp_message bank ~from_isp:isp
               (Zmail.Wire.seal_for_bank rng stranger
                  (Zmail.Wire.Buy { amount = 1; nonce = 0L }))))
    ops

(* Install [image] on a fresh disk-less bank and return its image. *)
let bank_image_restore ~seed image =
  let b = mk_wal_bank ~seed ~disk:None in
  (match Zmail.Journal.restore_image (fun r -> Zmail.Bank.restore_state r b) image with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bank image restore failed: %s" e);
  Zmail.Bank.durable_image b

let bank_replay_equals_image =
  QCheck.Test.make
    ~name:"bank wal: replay == crash-instant image restore" ~count:40
    QCheck.(pair small_nat (list (int_bound 63)))
    (fun (seed, ops) ->
      let disk = Some (Sim.Disk.create (Sim.Rng.create (seed + 7))) in
      let a = mk_wal_bank ~seed ~disk in
      drive_bank a ~seed ops;
      let image_pre = Zmail.Bank.durable_image a in
      Zmail.Bank.power_cut a;
      (match Zmail.Bank.recover_wal a with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "recover_wal failed: %s" e);
      String.equal (Zmail.Bank.durable_image a) (bank_image_restore ~seed image_pre))

let log_records disk = List.length (Persist.Wal.scan (Sim.Disk.contents disk)).Persist.Wal.records

let bank_wal_compaction () =
  let disk = Sim.Disk.create (Sim.Rng.create 31) in
  let bank = mk_wal_bank ~seed:30 ~disk:(Some disk) in
  (* Buys and sells only: no audit round closes, so nothing but the
     512-record threshold can compact the log. *)
  drive_bank bank ~seed:30 (List.init 600 (fun i -> 8 * i + (i mod 2)));
  checkb "enough deltas to force compaction" true (Zmail.Bank.wal_appended bank > 512);
  checkb "log holds at most one checkpoint + 512 deltas" true (log_records disk <= 513);
  let image_pre = Zmail.Bank.durable_image bank in
  Zmail.Bank.power_cut bank;
  (match Zmail.Bank.recover_wal bank with
  | Ok () -> ()
  | Error e -> Alcotest.failf "recover_wal failed: %s" e);
  checkb "few records replayed after compaction" true (Zmail.Bank.wal_replayed bank < 512);
  checkb "compacted replay equals image restore" true
    (String.equal (Zmail.Bank.durable_image bank) (bank_image_restore ~seed:30 image_pre))

(* ------------------------------------------------------------------ *)
(* Zmail.Journal: the engine both kernels share                        *)
(* ------------------------------------------------------------------ *)

(* A toy owner: its state is the list of ints appended so far, each
   delta record carries one int, and the image is the whole list. *)
type toy = {
  disk : Sim.Disk.t;
  j : Zmail.Journal.t;
  mutable state : int list;
}

let toy_image t = Zmail.Journal.image (Persist.Codec.W.list Persist.Codec.W.int) t.state

let toy ~group =
  let disk = Sim.Disk.create (Sim.Rng.create 3) in
  let t = { disk; j = Zmail.Journal.create ~group disk; state = [] } in
  Zmail.Journal.checkpoint t.j ~image:(toy_image t);
  t

let toy_push t ~flush x =
  t.state <- x :: t.state;
  Zmail.Journal.append t.j ~flush
    ~image:(fun () -> toy_image t)
    (fun w -> Persist.Codec.W.int w x)

let toy_recover ?(replay = fun t r -> t.state <- Persist.Codec.R.int r :: t.state) t =
  Zmail.Journal.recover t.j
    ~restore:(fun r -> t.state <- Persist.Codec.R.(list int) r)
    ~replay:(replay t)

(* Power-cut, recover, re-baseline like a kernel does, and return the
   recovered state. *)
let toy_crash t =
  Zmail.Journal.power_cut t.j;
  (match toy_recover t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "recover failed: %s" e);
  Zmail.Journal.checkpoint t.j ~image:(toy_image t);
  t.state

let journal_group_commit () =
  for group = 1 to 6 do
    let t = toy ~group in
    for x = 1 to group - 1 do
      toy_push t ~flush:false x
    done;
    Alcotest.(check (list int))
      (Printf.sprintf "group %d: a partial group is lost" group)
      [] (toy_crash t);
    for x = 1 to group do
      toy_push t ~flush:false x
    done;
    checki (Printf.sprintf "group %d: a full group is durable" group) group
      (List.length (toy_crash t));
    let before = t.state in
    for x = 1 to group - 1 do
      toy_push t ~flush:false x
    done;
    toy_push t ~flush:true 99;
    checki
      (Printf.sprintf "group %d: a mandatory record flushes the lazy tail" group)
      (List.length before + group)
      (List.length (toy_crash t))
  done

let journal_compaction () =
  let t = toy ~group:1 in
  for x = 1 to 600 do
    toy_push t ~flush:true x
  done;
  checki "every delta counted" 600 (Zmail.Journal.appended t.j);
  checkb "log holds at most one checkpoint + 512 deltas" true
    (log_records t.disk <= 513);
  let live = t.state in
  Alcotest.(check (list int)) "recovery equals the live state" live (toy_crash t);
  checkb "only the post-compaction deltas replayed" true
    (Zmail.Journal.replayed t.j < 512)

let journal_replay_is_silent () =
  let t = toy ~group:1 in
  for x = 1 to 5 do
    toy_push t ~flush:true x
  done;
  let log = Sim.Disk.contents t.disk in
  let appends = Sim.Disk.appends t.disk in
  Zmail.Journal.power_cut t.j;
  (match
     toy_recover t
       ~replay:(fun t r ->
         let x = Persist.Codec.R.int r in
         (* An owner re-running its live path during replay. *)
         toy_push t ~flush:true x)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "recover failed: %s" e);
  checki "replayed every delta" 5 (Zmail.Journal.replayed t.j);
  Alcotest.(check string) "replay wrote nothing" log (Sim.Disk.contents t.disk);
  checki "no device appends during replay" appends (Sim.Disk.appends t.disk);
  checki "appended counter untouched" 5 (Zmail.Journal.appended t.j)

let journal_recover_errors () =
  let expect_error what t ~replay =
    match toy_recover t ~replay with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: recovered" what
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  let replay t r = t.state <- Persist.Codec.R.int r :: t.state in
  let disk = Sim.Disk.create (Sim.Rng.create 4) in
  expect_error "empty device"
    { disk; j = Zmail.Journal.create ~group:1 disk; state = [] }
    ~replay;
  let t = toy ~group:1 in
  Sim.Disk.reset_to t.disk
    (Persist.Wal.frame ~seq:0
       (Persist.Codec.to_string (fun w () -> Persist.Codec.W.u8 w 1) ()));
  expect_error "first record is not a checkpoint" t ~replay;
  (* Flip each bit of a checkpoint image in turn, behind a frame whose
     own CRC is intact: only the image's trailer can catch it. *)
  let t = toy ~group:1 in
  t.state <- [ 1; 2; 3 ];
  let image = toy_image t in
  for bit = 0 to (8 * String.length image) - 1 do
    let bad = Bytes.of_string image in
    Bytes.set bad (bit / 8)
      (Char.chr (Char.code (Bytes.get bad (bit / 8)) lxor (1 lsl (bit mod 8))));
    Sim.Disk.reset_to t.disk
      (Persist.Wal.frame ~seq:0
         (Persist.Codec.to_string
            (fun w () ->
              Persist.Codec.W.u8 w 0;
              Persist.Codec.W.str w (Bytes.to_string bad))
            ()));
    expect_error (Printf.sprintf "image bit %d flipped" bit) t ~replay
  done;
  let t = toy ~group:1 in
  toy_push t ~flush:true 7;
  expect_error "replay raises Failure" t ~replay:(fun _ _ -> failwith "diverged")

let () =
  Alcotest.run "wal"
    [
      ( "framing",
        [
          qtest prefix_recoverable;
          qtest bitflip_detected;
          qtest torn_final_truncated;
          Alcotest.test_case "splice rejected" `Quick splice_rejected;
        ] );
      ( "disk",
        [
          Alcotest.test_case "append/flush/power-cut semantics" `Quick disk_semantics;
          Alcotest.test_case "torn fragment is a strict prefix" `Quick
            disk_torn_strict_prefix;
          Alcotest.test_case "state roundtrip" `Quick disk_state_roundtrip;
        ] );
      ( "kernel",
        [
          qtest replay_equals_image;
          qtest conservation_across_crash;
          Alcotest.test_case "compaction" `Quick wal_compaction;
          Alcotest.test_case "bank replay + reply cache" `Quick bank_wal_replay;
          qtest bank_replay_equals_image;
          Alcotest.test_case "bank compaction" `Quick bank_wal_compaction;
        ] );
      ( "journal",
        [
          Alcotest.test_case "group commit" `Quick journal_group_commit;
          Alcotest.test_case "compaction" `Quick journal_compaction;
          Alcotest.test_case "append during replay writes nothing" `Quick
            journal_replay_is_silent;
          Alcotest.test_case "recover errors never raise" `Quick
            journal_recover_errors;
        ] );
    ]
