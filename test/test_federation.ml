(* Tests for the distributed-banks extension (§5 "Bank Setup"). *)

let rng () = Sim.Rng.create 55

let make ?(n_banks = 2) ?(n_isps = 4) ?(f = fun c -> c) () =
  let cfg = f (Zmail.Federation.default_config ~n_banks ~n_isps) in
  (cfg, Zmail.Federation.create (rng ()) cfg)

let seal_to t ~isp payload =
  let bank = Zmail.Federation.home_of t ~isp in
  Zmail.Wire.seal_for_bank (rng ()) (Zmail.Federation.public_key t ~bank) payload

let test_homing () =
  let _, t = make () in
  Alcotest.(check int) "round robin 0" 0 (Zmail.Federation.home_of t ~isp:0);
  Alcotest.(check int) "round robin 1" 1 (Zmail.Federation.home_of t ~isp:1);
  Alcotest.(check int) "round robin 2" 0 (Zmail.Federation.home_of t ~isp:2);
  Alcotest.(check bool) "distinct bank keys" true
    (Toycrypto.Rsa.key_id (Zmail.Federation.public_key t ~bank:0)
    <> Toycrypto.Rsa.key_id (Zmail.Federation.public_key t ~bank:1))

let test_buy_at_home_bank () =
  let _, t = make () in
  let sealed = seal_to t ~isp:0 (Zmail.Wire.Buy { amount = 500; nonce = 1L }) in
  (match Zmail.Federation.on_isp_message t ~from_isp:0 sealed with
  | Zmail.Federation.Reply signed -> (
      match
        Zmail.Wire.verify_from_bank (Zmail.Federation.public_key t ~bank:0) signed
      with
      | Some (Zmail.Wire.Buy_reply { accepted = true; nonce = 1L }) -> ()
      | _ -> Alcotest.fail "expected an accepted buy reply signed by bank 0")
  | Zmail.Federation.Rejected r -> Alcotest.fail (Zmail.Bank.reject_to_string r));
  Alcotest.(check int) "account debited" (1_000_000 - 500)
    (Zmail.Federation.account_balance t ~isp:0);
  Alcotest.(check int) "bank 0 outstanding" 500 (Zmail.Federation.outstanding t ~bank:0);
  Alcotest.(check int) "bank 1 untouched" 0 (Zmail.Federation.outstanding t ~bank:1);
  Alcotest.(check int) "federation outstanding" 500 (Zmail.Federation.total_outstanding t)

let test_foreign_bank_rejected () =
  let _, t = make () in
  (* ISP 0 is homed at bank 0; seal to bank 1's key instead. *)
  let sealed =
    Zmail.Wire.seal_for_bank (rng ())
      (Zmail.Federation.public_key t ~bank:1)
      (Zmail.Wire.Buy { amount = 500; nonce = 2L })
  in
  match Zmail.Federation.on_isp_message t ~from_isp:0 sealed with
  | Zmail.Federation.Rejected _ ->
      Alcotest.(check int) "nothing issued anywhere" 0
        (Zmail.Federation.total_outstanding t)
  | Zmail.Federation.Reply _ -> Alcotest.fail "foreign-bank envelope must be rejected"

let test_replay_rejected () =
  let _, t = make () in
  let sealed = seal_to t ~isp:1 (Zmail.Wire.Buy { amount = 100; nonce = 3L }) in
  (match Zmail.Federation.on_isp_message t ~from_isp:1 sealed with
  | Zmail.Federation.Reply _ -> ()
  | Zmail.Federation.Rejected r -> Alcotest.fail (Zmail.Bank.reject_to_string r));
  (match Zmail.Federation.on_isp_message t ~from_isp:1 sealed with
  | Zmail.Federation.Rejected _ -> ()
  | Zmail.Federation.Reply _ -> Alcotest.fail "replay must be rejected");
  Alcotest.(check int) "debited once" (1_000_000 - 100)
    (Zmail.Federation.account_balance t ~isp:1)

let test_clearing () =
  let _, t = make ~n_banks:2 ~n_isps:2 () in
  (* ISP 0 (bank 0) buys 1000; ISP 1 (bank 1) sells 400 it received in
     the mail: bank 1 pays out cash it never collected. *)
  ignore
    (Zmail.Federation.on_isp_message t ~from_isp:0
       (seal_to t ~isp:0 (Zmail.Wire.Buy { amount = 1000; nonce = 10L })));
  ignore
    (Zmail.Federation.on_isp_message t ~from_isp:1
       (seal_to t ~isp:1 (Zmail.Wire.Sell { amount = 400; nonce = 11L })));
  Alcotest.(check int) "total outstanding" 600 (Zmail.Federation.total_outstanding t);
  Alcotest.(check int) "bank 0 position" 700 (Zmail.Federation.position t ~bank:0);
  Alcotest.(check int) "bank 1 position" (-700) (Zmail.Federation.position t ~bank:1);
  (match Zmail.Federation.settle t with
  | [ (0, 1, 700) ] -> ()
  | transfers -> Alcotest.failf "unexpected transfers (%d)" (List.length transfers));
  Alcotest.(check int) "positions cleared (0)" 0 (Zmail.Federation.position t ~bank:0);
  Alcotest.(check int) "positions cleared (1)" 0 (Zmail.Federation.position t ~bank:1);
  Alcotest.(check (list (triple int int int))) "settle is idempotent" []
    (List.map (fun (a, b, c) -> (a, b, c)) (Zmail.Federation.settle t));
  (* Outstanding is unchanged by clearing: it is a liability, not cash. *)
  Alcotest.(check int) "outstanding preserved" 600 (Zmail.Federation.total_outstanding t)

let test_clearing_three_banks () =
  let _, t = make ~n_banks:3 ~n_isps:3 () in
  ignore
    (Zmail.Federation.on_isp_message t ~from_isp:0
       (seal_to t ~isp:0 (Zmail.Wire.Buy { amount = 900; nonce = 20L })));
  ignore
    (Zmail.Federation.on_isp_message t ~from_isp:1
       (seal_to t ~isp:1 (Zmail.Wire.Sell { amount = 300; nonce = 21L })));
  ignore
    (Zmail.Federation.on_isp_message t ~from_isp:2
       (seal_to t ~isp:2 (Zmail.Wire.Sell { amount = 300; nonce = 22L })));
  let transfers = Zmail.Federation.settle t in
  Alcotest.(check bool) "some transfers" true (transfers <> []);
  for b = 0 to 2 do
    Alcotest.(check int) (Printf.sprintf "bank %d cleared" b) 0
      (Zmail.Federation.position t ~bank:b)
  done;
  (* Money conservation: transfers net to zero by construction, and the
     sum of positions was zero before and after. *)
  let net =
    List.fold_left (fun acc (_, _, amount) -> acc + amount) 0 transfers
  in
  Alcotest.(check bool) "transfers positive" true (net > 0)

let test_global_audit_with_kernels () =
  (* Four real ISP kernels homed to two banks; cross traffic including
     a cheater; the federation audit must catch it across bank lines. *)
  let n_isps = 4 in
  let compliant = Array.make n_isps true in
  let r = rng () in
  let cfg, t = make ~n_banks:2 ~n_isps () in
  ignore cfg;
  let kernels =
    Array.init n_isps (fun i ->
        let bank = Zmail.Federation.home_of t ~isp:i in
        let base =
          Zmail.Isp.default_config ~index:i ~n_isps ~n_users:2 ~compliant
            ~bank_public:(Zmail.Federation.public_key t ~bank)
        in
        let cfg =
          if i = 3 then { base with Zmail.Isp.cheat = Zmail.Isp.Fake_receives 2 }
          else base
        in
        Zmail.Isp.create r cfg)
  in
  (* Honest cross traffic between every ordered pair. *)
  Array.iteri
    (fun i sender ->
      Array.iteri
        (fun j receiver ->
          if i <> j then begin
            ignore (Zmail.Isp.charge_send sender ~sender:0 ~dest_isp:j);
            ignore (Zmail.Isp.accept_delivery receiver ~from_isp:i ~rcpt:1)
          end)
        kernels)
    kernels;
  (* The cheat applies at end of day. *)
  Array.iter Zmail.Isp.end_of_day kernels;
  (* Audit choreography through the federation. *)
  let requests = Zmail.Federation.start_audit t in
  Alcotest.(check int) "requests for all" n_isps (List.length requests);
  Alcotest.(check bool) "in progress" true (Zmail.Federation.audit_in_progress t);
  let result = ref None in
  List.iter
    (fun (i, signed) ->
      Alcotest.(check bool) "kernel accepts its home bank's signature" true
        (Zmail.Isp.on_bank_message kernels.(i) signed = Zmail.Isp.Start_snapshot_timer);
      let reply = Zmail.Isp.thaw kernels.(i) in
      match Zmail.Federation.on_audit_reply t ~from_isp:i reply with
      | Ok (Some r) -> result := Some r
      | Ok None -> ()
      | Error e -> Alcotest.fail e)
    requests;
  match !result with
  | Some r ->
      Alcotest.(check bool) "violations found" true (r.Zmail.Bank.violations <> []);
      Alcotest.(check (list int)) "cross-bank cheater caught" [ 3 ] r.Zmail.Bank.suspects
  | None -> Alcotest.fail "audit did not complete"

let test_audit_reply_validation () =
  let _, t = make () in
  (* No audit running. *)
  let reply =
    seal_to t ~isp:0 (Zmail.Wire.Audit_reply { isp = 0; seq = 0; credit = [||] })
  in
  (match Zmail.Federation.on_audit_reply t ~from_isp:0 reply with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reply outside an audit must fail");
  ignore (Zmail.Federation.start_audit t);
  (* Misattributed reply: ISP 1 sends a row claiming to be ISP 0. *)
  let forged =
    seal_to t ~isp:1 (Zmail.Wire.Audit_reply { isp = 0; seq = 0; credit = [||] })
  in
  (match Zmail.Federation.on_audit_reply t ~from_isp:1 forged with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "misattributed reply must fail");
  (* Audit replies must not go through the buy/sell entry point. *)
  match Zmail.Federation.on_isp_message t ~from_isp:0 reply with
  | Zmail.Federation.Rejected _ -> ()
  | Zmail.Federation.Reply _ -> Alcotest.fail "wrong entry point must reject"

let audit_reply t ~isp ~seq credit =
  seal_to t ~isp (Zmail.Wire.Audit_reply { isp; seq; credit })

let expect_progress t ~isp reply =
  match Zmail.Federation.on_audit_reply t ~from_isp:isp reply with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.failf "round closed early at ISP %d's reply" isp
  | Error e -> Alcotest.failf "ISP %d's reply refused: %s" isp e

let expect_close t ~isp reply =
  match Zmail.Federation.on_audit_reply t ~from_isp:isp reply with
  | Ok (Some r) -> r
  | Ok None -> Alcotest.failf "round still open after ISP %d's reply" isp
  | Error e -> Alcotest.failf "ISP %d's reply refused: %s" isp e

(* A second reply from the same ISP is refused and must not count
   toward closing the round: with it counted, two replies from ISP 0
   plus one from ISP 1 would close a three-ISP round without ISP 2. *)
let test_duplicate_reply_refused () =
  let _, t = make ~n_isps:3 () in
  ignore (Zmail.Federation.start_audit t);
  let row0 = audit_reply t ~isp:0 ~seq:0 [| (1, 2) |] in
  expect_progress t ~isp:0 row0;
  (match Zmail.Federation.on_audit_reply t ~from_isp:0 row0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate reply must be refused");
  expect_progress t ~isp:1 (audit_reply t ~isp:1 ~seq:0 [| (0, -2) |]);
  Alcotest.(check bool) "still open" true (Zmail.Federation.audit_in_progress t);
  let r = expect_close t ~isp:2 (audit_reply t ~isp:2 ~seq:0 [||]) in
  Alcotest.(check int) "first row kept, books agree" 0
    (List.length r.Zmail.Bank.violations)

(* The round closes on the last compliant ISP's reply — not before,
   and a non-compliant ISP is neither awaited nor heard. *)
let test_closes_on_last_compliant () =
  let _, t =
    make ~n_isps:4
      ~f:(fun c -> { c with Zmail.Federation.compliant = [| true; false; true; true |] })
      ()
  in
  let requests = Zmail.Federation.start_audit t in
  Alcotest.(check (list int)) "requests for compliant ISPs" [ 0; 2; 3 ]
    (List.map fst requests);
  expect_progress t ~isp:0 (audit_reply t ~isp:0 ~seq:0 [| (3, 1) |]);
  expect_progress t ~isp:2 (audit_reply t ~isp:2 ~seq:0 [||]);
  (match
     Zmail.Federation.on_audit_reply t ~from_isp:1 (audit_reply t ~isp:1 ~seq:0 [||])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-compliant reply must be refused");
  Alcotest.(check bool) "open until the last" true (Zmail.Federation.audit_in_progress t);
  let r = expect_close t ~isp:3 (audit_reply t ~isp:3 ~seq:0 [| (0, -1) |]) in
  Alcotest.(check int) "round seq" 0 r.Zmail.Bank.seq;
  Alcotest.(check bool) "closed" false (Zmail.Federation.audit_in_progress t);
  Alcotest.(check int) "one round completed" 1
    (Zmail.Federation.stats t).Zmail.Federation.audits_completed

(* The federation's sparse verdict equals the dense reference scan of
   the merged matrix, with each [Lie_in_audit] bank's delta added to
   its members' cells against every compliant foreign-homed peer.
   Rows are random sparse cells (duplicates, self-cells and
   out-of-range peers included); every behavior is tried at bank 0,
   the other banks drawing theirs at random. *)
let federation_matches_dense =
  let kinds = [ `Honest; `Over; `Skim; `Lie ] in
  QCheck.Test.make ~name:"federation verdict = dense reference scan" ~count:100
    QCheck.(triple (int_range 2 8) (int_range 1 3) small_nat)
    (fun (n_isps, n_banks, seed) ->
      let rng = Sim.Rng.create (seed + 91) in
      let behavior kind =
        let d = 1 + Sim.Rng.int rng 5 in
        match kind with
        | `Honest -> Zmail.Federation.Honest_bank
        | `Over -> Zmail.Federation.Over_issue d
        | `Skim -> Zmail.Federation.Skim_position d
        | `Lie -> Zmail.Federation.Lie_in_audit (if Sim.Rng.bool rng then d else -d)
      in
      let compliant = Array.init n_isps (fun i -> i = 0 || Sim.Rng.int rng 4 > 0) in
      let rows =
        Array.init n_isps (fun _ ->
            Array.init (Sim.Rng.int rng (n_isps + 2)) (fun _ ->
                (Sim.Rng.int rng (n_isps + 1), Sim.Rng.int rng 11 - 5)))
      in
      List.for_all
        (fun kind ->
          let behaviors =
            Array.init n_banks (fun b ->
                behavior (if b = 0 then kind else List.nth kinds (Sim.Rng.int rng 4)))
          in
          let cfg, t =
            make ~n_banks ~n_isps
              ~f:(fun c -> { c with Zmail.Federation.compliant; behaviors })
              ()
          in
          let reported = Array.make_matrix n_isps n_isps 0 in
          Array.iteri
            (fun i row ->
              Array.iter
                (fun (p, v) -> if p < n_isps then reported.(i).(p) <- reported.(i).(p) + v)
                row;
              let home = cfg.Zmail.Federation.home.(i) in
              match behaviors.(home) with
              | Zmail.Federation.Lie_in_audit d ->
                  Array.iteri
                    (fun p _ ->
                      if p <> i && compliant.(p) && cfg.Zmail.Federation.home.(p) <> home
                      then reported.(i).(p) <- reported.(i).(p) + d)
                    reported.(i)
              | _ -> ())
            rows;
          let result = ref None in
          List.iter
            (fun (i, _) ->
              match
                Zmail.Federation.on_audit_reply t ~from_isp:i
                  (audit_reply t ~isp:i ~seq:0 rows.(i))
              with
              | Ok r -> if r <> None then result := r
              | Error e -> failwith e)
            (Zmail.Federation.start_audit t);
          match !result with
          | Some r -> r.Zmail.Bank.violations = Reference.Audit.verify ~reported ~compliant
          | None -> false)
        kinds)

let test_single_bank_degenerate () =
  (* n_banks = 1 behaves like the plain protocol: positions are always
     zero. *)
  let _, t = make ~n_banks:1 ~n_isps:3 () in
  ignore
    (Zmail.Federation.on_isp_message t ~from_isp:0
       (seal_to t ~isp:0 (Zmail.Wire.Buy { amount = 777; nonce = 30L })));
  Alcotest.(check int) "position zero" 0 (Zmail.Federation.position t ~bank:0);
  Alcotest.(check (list (triple int int int))) "nothing to settle" []
    (List.map (fun x -> x) (Zmail.Federation.settle t))

let test_config_validation () =
  Alcotest.(check bool) "bad home map" true
    (try
       ignore
         (Zmail.Federation.create (rng ())
            { (Zmail.Federation.default_config ~n_banks:2 ~n_isps:2) with
              Zmail.Federation.home = [| 0; 5 |] });
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "federation"
    [
      ( "banking",
        [
          Alcotest.test_case "homing" `Quick test_homing;
          Alcotest.test_case "buy at home bank" `Quick test_buy_at_home_bank;
          Alcotest.test_case "foreign bank rejected" `Quick test_foreign_bank_rejected;
          Alcotest.test_case "replay rejected" `Quick test_replay_rejected;
        ] );
      ( "clearing",
        [
          Alcotest.test_case "two banks" `Quick test_clearing;
          Alcotest.test_case "three banks" `Quick test_clearing_three_banks;
          Alcotest.test_case "single bank degenerate" `Quick test_single_bank_degenerate;
        ] );
      ( "audit",
        [
          Alcotest.test_case "global audit with kernels" `Quick
            test_global_audit_with_kernels;
          Alcotest.test_case "reply validation" `Quick test_audit_reply_validation;
          Alcotest.test_case "duplicate reply refused" `Quick
            test_duplicate_reply_refused;
          Alcotest.test_case "closes on last compliant reply" `Quick
            test_closes_on_last_compliant;
          QCheck_alcotest.to_alcotest federation_matches_dense;
        ] );
      ( "config",
        [ Alcotest.test_case "validation" `Quick test_config_validation ] );
    ]
