(** Distributed banks (§5, "Bank Setup").

    The paper: "the role of the bank in the Zmail protocol can be
    implemented as a set of distributed banks … It is fairly
    straightforward to extend the Zmail protocol to incorporate
    multiple collaborating banks."  This module is that extension.

    Each compliant ISP is {e homed} to one member bank, which holds its
    real-money account and serves its §4.3 buy/sell requests (sealed to
    that bank's key; requests to a foreign bank are rejected).  Two
    things require collaboration:

    - {b Global audits.}  Credit consistency is a property of ISP
      {e pairs}, which may be homed to different banks.  The federation
      feeds every member bank's collected credit rows into one sparse
      claim accumulator ({!Audit.Verify}) and closes the round through
      {!Bank.verdict}, the same §4.4 rule a single bank applies.
      (These rounds address every member synchronously and never use a
      member bank's partition-carry matrix — see {!Bank.start_audit}.)
    - {b Clearing.}  E-pennies issued by bank A migrate inside email to
      ISPs homed at bank B, whose buy-backs then pay out cash B never
      collected.  Each bank's {!position} drifts accordingly; {!settle}
      computes the inter-bank transfers that return every position to
      the federation mean, conserving money.

    Clearing is {e not} assumed to run over a perfect channel.  The
    instant {!settle} remains the degenerate synchronous path (E15,
    unit tests); the production path signs each transfer as a
    {!Wire.Transfer}, ships it through whatever lossy, delaying,
    partitioning or tampered link the caller routes it over
    ({!Clearing} drives it through a {!Sim.Fault.Mesh} with
    retry/backoff), and applies money {b exactly once} at delivery:
    the receiving bank dedups on the transfer id ({!receive_transfer})
    and acks, the sender retransmits until acked.  Debit and credit
    land atomically at delivery, so total federation cash is conserved
    at every instant, however many transfers are in flight — an
    undelivered transfer is carry, not lost money.

    A member bank can also be {e Byzantine} ({!bank_behavior}): it may
    over-issue unbacked e-pennies, misreport its clearing position, or
    lie in the global audit on its members' behalf.  Settlement-time
    {!statements} are checked by {!verify_statements} (book
    self-consistency plus the member-deposit cross-check), audit-time
    lies are attributed by {!bank_suspects}, and a flagged bank is
    contained by settling around it ([settle ~exclude]).

    The single-bank protocol is the [n_banks = 1] special case. *)

type bank_behavior =
  | Honest_bank
  | Over_issue of int
      (** On every accepted member buy, issue the full e-penny amount
          but collect up to this many pennies less (a kickback to the
          member): unbacked issue.  The money and the books disagree,
          so the bank's truthful statement fails the self-consistency
          check. *)
  | Skim_position of int
      (** Declare this many pennies of phantom cash {e and} phantom
          issue in clearing statements, to extract larger transfers.
          Self-consistent, but contradicted by what the bank's own
          members attest to having deposited. *)
  | Lie_in_audit of int
      (** Add this delta to each own-member audit claim against every
          foreign-homed peer before it reaches the global check.
          Breaks antisymmetry on {e every} cross-bank pair involving
          its members while intra-bank pairs stay clean — the block
          signature {!bank_suspects} detects; {!suspects_excluding_banks}
          then clears the wrongly implicated member ISPs. *)

type config = {
  n_banks : int;
  n_isps : int;
  compliant : bool array;
  home : int array;  (** [home.(isp)] is the ISP's member bank. *)
  initial_account : int;  (** Real pennies per ISP, at its home bank. *)
  behaviors : bank_behavior array;  (** Per member bank. *)
}

val default_config : n_banks:int -> n_isps:int -> config
(** All ISPs compliant, homed round-robin, accounts of 1,000,000,
    every bank honest. *)

type t

val create : Sim.Rng.t -> config -> t

val set_tracer : t -> Obs.Trace.t -> unit
(** Emit [fed/...] trace events (member-bank buy/sell, rejects, global
    audit completion, clearing transfers).  Default: {!Obs.Trace.none}. *)

val n_banks : t -> int
val home_of : t -> isp:int -> int
val public_key : t -> bank:int -> Toycrypto.Rsa.public
(** ISPs seal their traffic to their home bank's key. *)

val account_balance : t -> isp:int -> int
val outstanding : t -> bank:int -> Epenny.amount
(** E-pennies issued minus redeemed by one member bank (may be
    negative: the bank redeemed foreign issue). *)

val total_outstanding : t -> Epenny.amount
(** Federation-wide liability; equals the sum of every ISP's e-penny
    growth (the conservation invariant). *)

val cash : t -> bank:int -> int
val net_cleared : t -> bank:int -> int
(** Net real pennies this bank has received through clearing
    transfers (negative: net payer). *)

val unbacked : t -> bank:int -> int
(** Ground truth of {!Over_issue}: e-pennies this bank issued without
    collecting the backing cash.  Never declared; experiments compare
    it against what the statement checks recover. *)

val total_money : t -> int
(** Sum of every ISP account and every bank till.  Buys, sells,
    clearing and even Byzantine issue only move pennies around, so
    this is constant at [n_isps * initial_account] — the exact-money-
    conservation check E19 runs in every cell. *)

type response =
  | Reply of Wire.signed  (** Signed by the ISP's home bank. *)
  | Rejected of Bank.reject
      (** Typed like the single bank's; {!Bank.Foreign_bank} and
          {!Bank.Replayed} only occur here.  Counted per reason in
          {!stats}. *)

val on_isp_message : t -> from_isp:int -> Toycrypto.Seal.sealed -> response
(** Serve a §4.3 buy/sell.  The envelope must be sealed to the sender's
    home bank; anything else (foreign bank, forgery, replay, audit
    payloads outside an audit) is rejected. *)

(** {1 Global audits} *)

val start_audit : t -> (int * Wire.signed) list
(** Audit requests for every compliant ISP, each signed by the ISP's
    home bank.
    @raise Invalid_argument if an audit is in progress. *)

val on_audit_reply : t -> from_isp:int -> Toycrypto.Seal.sealed ->
  (Bank.audit_result option, string) result
(** Feed one ISP's sealed snapshot to its home bank.  [Ok None] while
    replies are outstanding; [Ok (Some result)] when the last reply
    completes the {e global} verification, closed by {!Bank.verdict}
    with no absentees.  A second reply from the same ISP is refused.  A
    {!Lie_in_audit} home bank tampers its members' claims here. *)

val audit_in_progress : t -> bool

val bank_suspects : t -> Bank.audit_result -> int list
(** Member banks whose lie explains the violation pattern: every
    cross-bank pair involving the bank's members broken, every
    intra-bank pair clean.  A single lying ISP breaks its intra-bank
    pairs too, so it never matches (except the degenerate
    one-member-bank case, where bank and member are indistinguishable). *)

val suspects_excluding_banks : t -> Bank.audit_result -> banks:int list -> int list
(** Re-run suspect attribution with the flagged banks' cross-bank
    violations explained away.  Member ISPs wrongly implicated by their
    home bank's lie are cleared; a genuinely cheating ISP still breaks
    intra-bank pairs and survives the filter. *)

(** {1 Clearing statements} *)

type statement = {
  st_bank : int;
  st_issued : int;
  st_redeemed : int;
  st_cash : int;
  st_net_cleared : int;
}
(** What one member bank declares at settlement time. *)

val statements : t -> statement list
(** As declared — Byzantine behaviors shape their own entries. *)

val member_deposits : t -> bank:int -> int
(** ISP-attested net deposits at this bank: the sum of
    [initial_account - balance] over its members, which the members can
    prove from their §4.3 receipts. *)

val verify_statements : t -> statement list -> (int * string) list
(** Flag inconsistent statements, with a reason.  Per bank: the books
    must self-balance ([cash - net_cleared = issued - redeemed],
    catches {!Over_issue}) and the declared holdings must match the
    member-attested deposits (catches {!Skim_position}).  A liar
    consistent against {e both} checks would need its members' issuance
    receipts forged too, which the threat model (bank Byzantine, ISPs
    honest about their own money) excludes. *)

(** {1 Clearing} *)

val position : t -> bank:int -> int
(** Real pennies this bank holds beyond its own liability: the cash it
    collected for issued e-pennies minus the cash it paid redeeming.
    Positive = owes the federation; negative = is owed. *)

val settle_plan :
  ?exclude:int list -> ?in_flight:(int * int * int) list -> t ->
  (int * int * int) list
(** The transfers [(from_bank, to_bank, pennies)] that bring every
    non-excluded bank's position to the non-excluded mean (zero when
    nothing is excluded), without applying them — the async clearing
    path plans here and moves money at delivery.  [in_flight] lists
    transfers already issued but not yet delivered; they are treated as
    executed so a partition round is never planned twice. *)

val settle : ?exclude:int list -> t -> (int * int * int) list
(** {!settle_plan} applied instantly — the synchronous, perfect-channel
    degenerate path (E15, unit tests).  Total money is conserved;
    repeated settlement with no new traffic is a no-op.  [exclude]
    contains a flagged Byzantine bank: its surplus or deficit stays
    frozen with it while the honest rest equalize among themselves. *)

val apply_transfer : t -> from_bank:int -> to_bank:int -> amount:int -> unit
(** Book one cleared transfer: debit, credit and both [net_cleared]
    lines move in one step (total cash invariant at every instant).
    Normally called via {!receive_transfer}. *)

(** {1 Clearing wire messages}

    The async path: the sender plans with {!settle_plan}, wraps each
    transfer with {!sign_transfer} and retransmits it over the lossy
    channel until the matching ack arrives; the receiver applies it
    exactly once.  See {!Clearing} for the mesh-routed driver. *)

val next_xfer_id : t -> int
(** Fresh monotone transfer id (the dedup key). *)

val sign_transfer :
  t -> from_bank:int -> to_bank:int -> amount:int -> xfer_id:int -> Wire.signed
(** A {!Wire.Transfer} signed by [from_bank]. *)

val receive_transfer : t -> Wire.signed -> (int * Wire.signed, Bank.reject) result
(** Deliver one transfer message at its destination bank.  Verifies the
    claimed origin bank's signature (forged or bit-flipped transfers
    are [Error Unreadable] and counted), applies the money exactly once
    (a duplicate is acked again without a second application), and
    returns [(xfer_id, ack)] where the ack is signed by the receiving
    bank. *)

val receive_ack : t -> to_bank:int -> Wire.signed -> (int, Bank.reject) result
(** Verify an ack signed by [to_bank] and return the acked transfer
    id; the sender stops retransmitting it. *)

val transfer_applied : t -> to_bank:int -> xfer_id:int -> bool
(** Has this transfer already landed at [to_bank]?  The planner uses it
    to treat delivered-but-unacked transfers as executed — safe because
    the receiver's dedup guarantees they never apply twice. *)

(** {1 Stats} *)

type stats = {
  buys : int;
  sells : int;
  transfers_applied : int;
  transfers_duplicate : int;
  audits_completed : int;
  rejects : (Bank.reject * int) list;
}

val stats : t -> stats
