(* Byzantine member-bank behaviors.  Unlike the ISP adversaries in
   [Adversary] (balance-neutral report tampers), a Byzantine bank can
   move real money: it sits on the issuing side of the zero-sum
   argument.  Each behavior is paired with the check that catches it —
   see [verify_statements] and [bank_suspects]. *)
type bank_behavior =
  | Honest_bank
  | Over_issue of int
  | Skim_position of int
  | Lie_in_audit of int

type config = {
  n_banks : int;
  n_isps : int;
  compliant : bool array;
  home : int array;
  initial_account : int;
  behaviors : bank_behavior array;
}

let default_config ~n_banks ~n_isps =
  {
    n_banks;
    n_isps;
    compliant = Array.make n_isps true;
    home = Array.init n_isps (fun i -> i mod n_banks);
    initial_account = 1_000_000;
    behaviors = Array.make n_banks Honest_bank;
  }

type member_bank = {
  public : Toycrypto.Rsa.public;
  secret : Toycrypto.Rsa.secret;
  seen_nonces : (int * int64, unit) Hashtbl.t;
  seen_xfers : (int, unit) Hashtbl.t;
      (* Clearing transfers already applied here: the dedup half of
         exactly-once delivery over an at-least-once channel. *)
  mutable issued : int;
  mutable redeemed : int;
  mutable cash : int;  (** Net real pennies from e-penny ops + clearing. *)
  mutable net_cleared : int;  (** Net real pennies received via clearing. *)
  mutable unbacked : int;
      (** Ground truth of [Over_issue]: e-pennies issued without
          collecting the backing cash.  Never declared — the audit has
          to find it. *)
  mutable members : int;
}

(* A global round: [replied.(i)] marks the ISPs whose row is already
   in the claim accumulator, [pending] counts the compliant ISPs still
   outstanding.  Rows go straight into the same sparse engine the bank
   runs, so a round costs O(populated cells), not O(n^2). *)
type audit_state = {
  audit_seq : int;
  replied : bool array;
  mutable pending : int;
  acc : Audit.Verify.acc;
}

type t = {
  config : config;
  banks : member_bank array;
  account : int array;  (* per ISP, at its home bank *)
  mutable seq : int;
  mutable next_xfer : int;
  mutable audit : audit_state option;
  mutable buys : int;
  mutable sells : int;
  mutable transfers_applied : int;
  mutable transfers_duplicate : int;
  mutable audits_completed : int;
  rejects : int array;  (* indexed by [Bank.reject_index] *)
  mutable tracer : Obs.Trace.t;
}

let create rng config =
  if config.n_banks <= 0 then invalid_arg "Federation.create: need at least one bank";
  if Array.length config.compliant <> config.n_isps then
    invalid_arg "Federation.create: compliance map size mismatch";
  if Array.length config.home <> config.n_isps then
    invalid_arg "Federation.create: home map size mismatch";
  if Array.length config.behaviors <> config.n_banks then
    invalid_arg "Federation.create: behavior map size mismatch";
  Array.iter
    (fun b ->
      if b < 0 || b >= config.n_banks then
        invalid_arg "Federation.create: home bank out of range")
    config.home;
  Array.iter
    (function
      | Over_issue d when d <= 0 ->
          invalid_arg "Federation.create: Over_issue needs a positive skim"
      | Skim_position d when d <= 0 ->
          invalid_arg "Federation.create: Skim_position needs a positive lie"
      | Lie_in_audit d when d = 0 ->
          invalid_arg "Federation.create: Lie_in_audit needs a non-zero delta"
      | _ -> ())
    config.behaviors;
  let banks =
    Array.init config.n_banks (fun _ ->
        let public, secret = Toycrypto.Rsa.generate rng in
        { public; secret; seen_nonces = Hashtbl.create 64;
          seen_xfers = Hashtbl.create 64; issued = 0; redeemed = 0; cash = 0;
          net_cleared = 0; unbacked = 0; members = 0 })
  in
  Array.iteri
    (fun isp b -> if config.compliant.(isp) then banks.(b).members <- banks.(b).members + 1)
    config.home;
  {
    config;
    banks;
    account = Array.make config.n_isps config.initial_account;
    seq = 0;
    next_xfer = 0;
    audit = None;
    buys = 0;
    sells = 0;
    transfers_applied = 0;
    transfers_duplicate = 0;
    audits_completed = 0;
    rejects = Array.make Bank.n_reject_reasons 0;
    tracer = Obs.Trace.none;
  }

let set_tracer t tracer = t.tracer <- tracer

let ev t name fields =
  if Obs.Trace.active t.tracer then
    Obs.Trace.emit t.tracer ~fields ~comp:"fed" name

let n_banks t = t.config.n_banks
let home_of t ~isp = t.config.home.(isp)
let public_key t ~bank = t.banks.(bank).public
let account_balance t ~isp = t.account.(isp)
let outstanding t ~bank = t.banks.(bank).issued - t.banks.(bank).redeemed

let total_outstanding t =
  Array.fold_left (fun acc b -> acc + b.issued - b.redeemed) 0 t.banks

let cash t ~bank = t.banks.(bank).cash
let net_cleared t ~bank = t.banks.(bank).net_cleared
let unbacked t ~bank = t.banks.(bank).unbacked

(* Every real penny is either in an ISP account or in some bank's till;
   clearing and even Byzantine issue move pennies around without
   creating any.  E19 asserts this total is [n_isps * initial_account]
   at every step. *)
let total_money t =
  Array.fold_left ( + ) 0 t.account
  + Array.fold_left (fun acc b -> acc + b.cash) 0 t.banks

type response = Reply of Wire.signed | Rejected of Bank.reject

let fresh_nonce bank ~from_isp nonce =
  if Hashtbl.mem bank.seen_nonces (from_isp, nonce) then false
  else begin
    Hashtbl.replace bank.seen_nonces (from_isp, nonce) ();
    true
  end

let reject t ~from_isp reason =
  t.rejects.(Bank.reject_index reason) <- t.rejects.(Bank.reject_index reason) + 1;
  ev t "reject"
    [ ("isp", Obs.Trace.Int from_isp);
      ("reason", Obs.Trace.Str (Bank.reject_to_string reason)) ];
  Rejected reason

(* Is [sealed] addressed to a real member bank other than [bank]?  The
   recipient id is attacker-controlled plaintext, so this is only used
   to pick the counter — never to accept anything. *)
let foreign_member t bank sealed =
  let rid = Toycrypto.Seal.recipient_id sealed in
  rid <> Toycrypto.Rsa.key_id bank.public
  && Array.exists (fun b -> Toycrypto.Rsa.key_id b.public = rid) t.banks

let on_isp_message t ~from_isp sealed =
  if from_isp < 0 || from_isp >= t.config.n_isps then
    reject t ~from_isp Bank.Unknown_isp
  else if not t.config.compliant.(from_isp) then
    reject t ~from_isp Bank.Non_compliant
  else begin
    let home = t.config.home.(from_isp) in
    let bank = t.banks.(home) in
    (* A foreign bank cannot open the envelope at all: unseal fails. *)
    match Wire.open_at_bank bank.secret sealed with
    | None ->
        if foreign_member t bank sealed then reject t ~from_isp Bank.Foreign_bank
        else reject t ~from_isp Bank.Unreadable
    | Some (Wire.Buy { amount; nonce }) ->
        if not (fresh_nonce bank ~from_isp nonce) then
          reject t ~from_isp Bank.Replayed
        else begin
          let accepted = t.account.(from_isp) >= amount in
          if accepted then begin
            (* A Byzantine [Over_issue] bank issues the full amount of
               e-pennies but collects less cash (a kickback to the
               member): unbacked issue the clearing audit must find. *)
            let short =
              match t.config.behaviors.(home) with
              | Over_issue d -> min d amount
              | Honest_bank | Skim_position _ | Lie_in_audit _ -> 0
            in
            t.account.(from_isp) <- t.account.(from_isp) - (amount - short);
            bank.issued <- bank.issued + amount;
            bank.cash <- bank.cash + (amount - short);
            bank.unbacked <- bank.unbacked + short;
            t.buys <- t.buys + 1
          end;
          ev t "buy"
            [ ("bank", Obs.Trace.Int home);
              ("isp", Obs.Trace.Int from_isp);
              ("amount", Obs.Trace.Int amount);
              ("accepted", Obs.Trace.Bool accepted) ];
          Reply (Wire.sign_by_bank bank.secret (Wire.Buy_reply { nonce; accepted }))
        end
    | Some (Wire.Sell { amount; nonce }) ->
        if not (fresh_nonce bank ~from_isp nonce) then
          reject t ~from_isp Bank.Replayed
        else begin
          t.account.(from_isp) <- t.account.(from_isp) + amount;
          bank.redeemed <- bank.redeemed + amount;
          bank.cash <- bank.cash - amount;
          t.sells <- t.sells + 1;
          ev t "sell"
            [ ("bank", Obs.Trace.Int home);
              ("isp", Obs.Trace.Int from_isp);
              ("amount", Obs.Trace.Int amount) ];
          Reply (Wire.sign_by_bank bank.secret (Wire.Sell_reply { nonce }))
        end
    | Some (Wire.Audit_reply _) -> reject t ~from_isp Bank.Wrong_state
    | Some
        ( Wire.Buy_reply _ | Wire.Sell_reply _ | Wire.Audit_request _
        | Wire.Transfer _ | Wire.Transfer_ack _ ) ->
        reject t ~from_isp Bank.Wrong_direction
  end

(* ------------------------------------------------------------------ *)
(* Global audits                                                       *)
(* ------------------------------------------------------------------ *)

let compliant_isps t =
  List.filter (fun i -> t.config.compliant.(i)) (List.init t.config.n_isps (fun i -> i))

let audit_in_progress t = t.audit <> None

let start_audit t =
  if t.audit <> None then
    invalid_arg "Federation.start_audit: audit already in progress";
  let targets = compliant_isps t in
  t.audit <-
    Some
      {
        audit_seq = t.seq;
        replied = Array.make t.config.n_isps false;
        pending = List.length targets;
        acc = Audit.Verify.create ~present:t.config.compliant ();
      };
  List.map
    (fun isp ->
      let bank = t.banks.(t.config.home.(isp)) in
      (isp, Wire.sign_by_bank bank.secret (Wire.Audit_request { seq = t.seq })))
    targets

let on_audit_reply t ~from_isp sealed =
  match t.audit with
  | None -> Error "no audit in progress"
  | Some audit -> (
      if from_isp < 0 || from_isp >= t.config.n_isps || not t.config.compliant.(from_isp)
      then Error "unknown or non-compliant ISP"
      else
        let home = t.config.home.(from_isp) in
        let bank = t.banks.(home) in
        match Wire.open_at_bank bank.secret sealed with
        | Some (Wire.Audit_reply { isp; seq; credit })
          when isp = from_isp && seq = audit.audit_seq && not audit.replied.(isp) ->
            (* Malformed cells (out of range, self, overflowing) count
               for nothing, as at the bank. *)
            Array.iter
              (fun (peer, v) -> Audit.Verify.claim audit.acc ~reporter:isp ~peer v)
              credit;
            (* A [Lie_in_audit] home bank adds its delta to its own
               members' claims against every foreign-homed peer before
               they reach the global check: every cross-bank pair
               involving its members breaks antisymmetry, while
               intra-bank pairs stay clean — the block signature
               [bank_suspects] detects. *)
            (match t.config.behaviors.(home) with
            | Lie_in_audit d ->
                for peer = 0 to t.config.n_isps - 1 do
                  if t.config.home.(peer) <> home then
                    Audit.Verify.claim audit.acc ~reporter:isp ~peer d
                done
            | Honest_bank | Over_issue _ | Skim_position _ -> ());
            audit.replied.(isp) <- true;
            audit.pending <- audit.pending - 1;
            if audit.pending > 0 then Ok None
            else begin
              (* A federation round addresses every member
                 synchronously; there is no quorum path here. *)
              let result =
                Bank.verdict audit.acc ~present:t.config.compliant
                  ~seq:audit.audit_seq ~absent:[]
              in
              t.audit <- None;
              t.seq <- t.seq + 1;
              t.audits_completed <- t.audits_completed + 1;
              ev t "audit_complete"
                [ ("seq", Obs.Trace.Int audit.audit_seq);
                  ("violations", Obs.Trace.Int (List.length result.Bank.violations)) ];
              Ok (Some result)
            end
        | Some (Wire.Audit_reply _) -> Error "stale, duplicate or misattributed reply"
        | Some _ -> Error "not an audit reply"
        | None -> Error "unreadable (wrong bank, forged or corrupted)")

(* Which member banks explain the violation pattern?  A lying home bank
   tampers every member row against every foreign peer, so {e all} its
   members' cross-bank pairs break while its intra-bank pairs stay
   clean.  A single lying ISP breaks its own pairs only — including
   intra-bank ones — so it never produces this block signature (except
   in the degenerate one-member-bank case, where bank and member are
   indistinguishable anyway). *)
let bank_suspects t (result : Bank.audit_result) =
  let home i = t.config.home.(i) in
  let cross (v : Audit.Verify.violation) = home v.isp_a <> home v.isp_b in
  List.filter
    (fun b ->
      let members =
        List.filter (fun i -> home i = b) (compliant_isps t)
      in
      let foreigners =
        List.filter (fun i -> home i <> b) (compliant_isps t)
      in
      let cross_pairs = List.length members * List.length foreigners in
      let broken_cross =
        List.length
          (List.filter
             (fun (v : Audit.Verify.violation) ->
               cross v && (home v.isp_a = b || home v.isp_b = b))
             result.violations)
      in
      let broken_intra =
        List.exists
          (fun (v : Audit.Verify.violation) ->
            (not (cross v)) && home v.isp_a = b)
          result.violations
      in
      cross_pairs > 0 && broken_cross = cross_pairs && not broken_intra)
    (List.init t.config.n_banks (fun b -> b))

(* Re-attribute: with the suspected banks' cross-bank pairs explained
   by the bank lie, who is still a suspect?  Intra-bank violations (a
   genuinely cheating member) survive the filter. *)
let suspects_excluding_banks t (result : Bank.audit_result) ~banks =
  let home i = t.config.home.(i) in
  let explained (v : Audit.Verify.violation) =
    home v.isp_a <> home v.isp_b
    && (List.mem (home v.isp_a) banks || List.mem (home v.isp_b) banks)
  in
  let remaining = List.filter (fun v -> not (explained v)) result.violations in
  Audit.Verify.suspects ~present:t.config.compliant remaining

(* ------------------------------------------------------------------ *)
(* Clearing statements                                                 *)
(* ------------------------------------------------------------------ *)

type statement = {
  st_bank : int;
  st_issued : int;
  st_redeemed : int;
  st_cash : int;
  st_net_cleared : int;
}

(* What each bank {e declares} at settlement time — behavior-shaped.
   [Over_issue] declares its true books (the lie is in the money);
   [Skim_position] inflates cash {e and} issue consistently, defeating
   the self-check but not the member-deposit cross-check. *)
let statements t =
  List.init t.config.n_banks (fun b ->
      let mb = t.banks.(b) in
      let base =
        { st_bank = b; st_issued = mb.issued; st_redeemed = mb.redeemed;
          st_cash = mb.cash; st_net_cleared = mb.net_cleared }
      in
      match t.config.behaviors.(b) with
      | Skim_position d ->
          { base with st_cash = base.st_cash + d; st_issued = base.st_issued + d }
      | Honest_bank | Over_issue _ | Lie_in_audit _ -> base)

(* ISP-attested net deposits at bank [b]: every penny a bank holds
   (apart from clearing) came out of its own members' accounts, and the
   members know their balances from their §4.3 receipts. *)
let member_deposits t ~bank =
  let total = ref 0 in
  Array.iteri
    (fun isp b ->
      if b = bank then
        total := !total + (t.config.initial_account - t.account.(isp)))
    t.config.home;
  !total

(* Two checks per statement.  Self-consistency: collected cash net of
   clearing must equal the outstanding liability (catches a bank whose
   money and books disagree — [Over_issue] declaring true books).
   Deposit cross-check: declared cash net of clearing must equal what
   the bank's own members attest to having paid in (catches a
   consistent liar inflating both sides — [Skim_position]). *)
let verify_statements t stmts =
  List.filter_map
    (fun s ->
      let holdings = s.st_cash - s.st_net_cleared in
      if holdings <> s.st_issued - s.st_redeemed then
        Some (s.st_bank, "books do not balance (cash vs. liability)")
      else if holdings <> member_deposits t ~bank:s.st_bank then
        Some (s.st_bank, "declared cash contradicts member deposits")
      else None)
    stmts

(* ------------------------------------------------------------------ *)
(* Clearing                                                            *)
(* ------------------------------------------------------------------ *)

(* Each bank's fair share of the federation float is pro rata by member
   count (remainders to the lowest indices, deterministically). *)
let fair_shares t =
  let total = total_outstanding t in
  let members_total = Array.fold_left (fun acc b -> acc + b.members) 0 t.banks in
  if members_total = 0 then Array.make t.config.n_banks 0
  else begin
    let shares =
      Array.map (fun b -> total * b.members / members_total) t.banks
    in
    let distributed = Array.fold_left ( + ) 0 shares in
    let remainder = total - distributed in
    let give = if remainder >= 0 then 1 else -1 in
    for k = 0 to abs remainder - 1 do
      shares.(k mod t.config.n_banks) <- shares.(k mod t.config.n_banks) + give
    done;
    shares
  end

let position t ~bank = t.banks.(bank).cash - (fair_shares t).(bank)

(* Plan the transfers bringing every included bank's position to the
   included subset's mean (deterministic remainders to the lowest
   indices).  With nobody excluded the positions sum to zero, the mean
   is zero, and this is the classic "zero every position" clearing; a
   flagged bank's surplus or deficit is frozen with it, and the honest
   rest still equalize among themselves, conserving money. *)
let settle_plan ?(exclude = []) ?(in_flight = []) t =
  let shares = fair_shares t in
  (* Treat the still-undelivered transfers of earlier rounds as already
     executed, so a lossy round is never planned twice. *)
  let adjust = Array.make t.config.n_banks 0 in
  List.iter
    (fun (from_bank, to_bank, amount) ->
      adjust.(from_bank) <- adjust.(from_bank) - amount;
      adjust.(to_bank) <- adjust.(to_bank) + amount)
    in_flight;
  let included =
    List.filter
      (fun b -> not (List.mem b exclude))
      (List.init t.config.n_banks (fun b -> b))
  in
  let k = List.length included in
  if k <= 1 then []
  else begin
    let pos =
      List.map (fun b -> (b, t.banks.(b).cash + adjust.(b) - shares.(b))) included
    in
    let total = List.fold_left (fun acc (_, p) -> acc + p) 0 pos in
    let q = total / k and r = total - (total / k * k) in
    let give = if r >= 0 then 1 else -1 in
    let targets =
      List.mapi (fun i (b, p) -> (b, p - (q + if i < abs r then give else 0))) pos
    in
    let debtors = List.filter (fun (_, s) -> s > 0) targets in
    let creditors = List.filter (fun (_, s) -> s < 0) targets in
    let transfers = ref [] in
    let creditors = ref (List.map (fun (b, s) -> (b, -s)) creditors) in
    List.iter
      (fun (from_bank, surplus) ->
        let remaining = ref surplus in
        while !remaining > 0 do
          match !creditors with
          | [] -> remaining := 0
          | (to_bank, need) :: rest ->
              let amount = min !remaining need in
              transfers := (from_bank, to_bank, amount) :: !transfers;
              remaining := !remaining - amount;
              creditors :=
                if need > amount then (to_bank, need - amount) :: rest else rest
        done)
      debtors;
    List.rev !transfers
  end

(* The cheque lands: debit and credit in one step, so the federation's
   total cash is identical before, during and after any clearing round,
   however lossy the channel that carried the instruction. *)
let apply_transfer t ~from_bank ~to_bank ~amount =
  ev t "settle_transfer"
    [ ("from", Obs.Trace.Int from_bank);
      ("to", Obs.Trace.Int to_bank);
      ("amount", Obs.Trace.Int amount) ];
  t.banks.(from_bank).cash <- t.banks.(from_bank).cash - amount;
  t.banks.(to_bank).cash <- t.banks.(to_bank).cash + amount;
  t.banks.(from_bank).net_cleared <- t.banks.(from_bank).net_cleared - amount;
  t.banks.(to_bank).net_cleared <- t.banks.(to_bank).net_cleared + amount

let settle ?exclude t =
  let transfers = settle_plan ?exclude t in
  List.iter
    (fun (from_bank, to_bank, amount) -> apply_transfer t ~from_bank ~to_bank ~amount)
    transfers;
  transfers

(* ------------------------------------------------------------------ *)
(* Clearing wire messages                                              *)
(* ------------------------------------------------------------------ *)

let next_xfer_id t =
  let id = t.next_xfer in
  t.next_xfer <- id + 1;
  id

let sign_transfer t ~from_bank ~to_bank ~amount ~xfer_id =
  Wire.sign_by_bank t.banks.(from_bank).secret
    (Wire.Transfer { from_bank; to_bank; amount; xfer_id })

let receive_transfer t (msg : Wire.signed) =
  match msg.Wire.payload with
  | Wire.Transfer { from_bank; to_bank; amount; xfer_id }
    when from_bank >= 0 && from_bank < t.config.n_banks
         && to_bank >= 0 && to_bank < t.config.n_banks && from_bank <> to_bank -> (
      match Wire.verify_from_bank t.banks.(from_bank).public msg with
      | None ->
          t.rejects.(Bank.reject_index Bank.Unreadable) <-
            t.rejects.(Bank.reject_index Bank.Unreadable) + 1;
          Error Bank.Unreadable
      | Some _ ->
          let ack =
            Wire.sign_by_bank t.banks.(to_bank).secret
              (Wire.Transfer_ack { xfer_id })
          in
          if Hashtbl.mem t.banks.(to_bank).seen_xfers xfer_id then begin
            (* Duplicate delivery: ack again, apply nothing. *)
            t.transfers_duplicate <- t.transfers_duplicate + 1;
            Ok (xfer_id, ack)
          end
          else begin
            Hashtbl.replace t.banks.(to_bank).seen_xfers xfer_id ();
            apply_transfer t ~from_bank ~to_bank ~amount;
            t.transfers_applied <- t.transfers_applied + 1;
            Ok (xfer_id, ack)
          end)
  | Wire.Transfer _ ->
      t.rejects.(Bank.reject_index Bank.Unreadable) <-
        t.rejects.(Bank.reject_index Bank.Unreadable) + 1;
      Error Bank.Unreadable
  | _ ->
      t.rejects.(Bank.reject_index Bank.Wrong_state) <-
        t.rejects.(Bank.reject_index Bank.Wrong_state) + 1;
      Error Bank.Wrong_state

let transfer_applied t ~to_bank ~xfer_id =
  Hashtbl.mem t.banks.(to_bank).seen_xfers xfer_id

let receive_ack t ~to_bank (msg : Wire.signed) =
  if to_bank < 0 || to_bank >= t.config.n_banks then Error Bank.Unreadable
  else
    match Wire.verify_from_bank t.banks.(to_bank).public msg with
    | Some (Wire.Transfer_ack { xfer_id }) -> Ok xfer_id
    | Some _ -> Error Bank.Wrong_state
    | None ->
        t.rejects.(Bank.reject_index Bank.Unreadable) <-
          t.rejects.(Bank.reject_index Bank.Unreadable) + 1;
        Error Bank.Unreadable

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

type stats = {
  buys : int;
  sells : int;
  transfers_applied : int;
  transfers_duplicate : int;
  audits_completed : int;
  rejects : (Bank.reject * int) list;
}

let stats (t : t) =
  {
    buys = t.buys;
    sells = t.sells;
    transfers_applied = t.transfers_applied;
    transfers_duplicate = t.transfers_duplicate;
    audits_completed = t.audits_completed;
    rejects =
      List.map (fun r -> (r, t.rejects.(Bank.reject_index r))) Bank.all_rejects;
  }
