(** Sparse §4.4 pairwise verification.

    A claim accumulator replacing the dense [n x n] matrix scan: feed
    every reported sparse cell (and any carry adjustments) with
    {!claim}, then read the inconsistent pairs from {!violations}.
    Cost is linear in the populated cell count, not in [n^2] — and
    stays linear at 10^4 ISPs because claims are appended to a flat
    buffer and radix-sorted at read time instead of hashed (random
    table access is a guaranteed cache miss at that scale; see the
    representation note in [verify.ml]).  Reads finalize the
    accumulator lazily; interleaving further {!claim}s afterwards is
    legal and simply re-finalizes on the next read.

    This is the only §4.4 engine in the library: the central bank and
    the federation's global audit both close their rounds through it.
    The dense O(n^2) scan it replaced survives only as the test
    suite's reference oracle. *)

type violation = {
  isp_a : int;
  isp_b : int;
  discrepancy : int;  (** [claim(a,b) + claim(b,a)], non-zero. *)
}

type acc
(** A verification round under construction. *)

val create : ?expected_cells:int -> present:bool array -> unit -> acc
(** [present.(i)] marks the ISPs participating in this round (compliant
    and reachable); claims involving anyone else are ignored, exactly
    as the dense scan's pair mask skips them.  [expected_cells]
    pre-sizes the claim buffers — callers holding the reports in hand
    (the bank feeds row lengths it already knows) avoid the
    buffer-doubling ladder a 10^4-ISP round would otherwise pay.
    @raise Invalid_argument on an empty map, or on more than 46340
    ISPs (pair keys must fit the packed 31-bit sort field). *)

val n : acc -> int

val claim : acc -> reporter:int -> peer:int -> int -> unit
(** Add [v] to what [reporter] claims against [peer].  Self-claims,
    zero claims, claims involving a non-present ISP and out-of-range
    indices are ignored (reported rows arrive off the wire; malformed
    cells count for nothing rather than aborting the audit). *)

val populated : acc -> int
(** Directed (reporter, peer) cells holding a non-zero claim — the
    sparse scan's actual working-set size, reported by the
    [audit_verify] bench row. *)

val violations : acc -> violation list
(** All pairs whose claims do not cancel, sorted by [(isp_a, isp_b)]
    with [isp_a < isp_b] — the pair order of a dense row-major scan. *)

val directed_claim : acc -> reporter:int -> peer:int -> int
(** The accumulated directed claim (0 when silent). *)

val consistent_nonzero : acc -> int -> int -> bool
(** The pair's books agree (discrepancy zero) but are not silent: at
    least one side claims traffic.  The coordination-edge predicate the
    cycle detector walks — honest strangers have no such edge, while
    colluders fabricating mutual claims to keep their own pair clean
    produce exactly this signature. *)

val present_count : acc -> int

val offenders : present:bool array -> violation list -> int list
(** Strict-majority conviction, sorted: ISPs violating with more than
    [(present-1)/2] peers.  Unlike {!suspects} there is no fallback to
    the implicated set — offenders are convictions, the fallback is
    investigation, and the two must not be conflated when rings are
    attributed. *)

val implicated : violation list -> int list
(** Sorted distinct ISPs appearing in any violation — the §4.4
    "suspected misbehaved ISPs" for further investigation. *)

val suspects : present:bool array -> violation list -> int list
(** Majority-rule accusation: the {!offenders} when there are any (a
    fraudulent row disagrees with nearly everyone; an honest one only
    with the cheaters), otherwise {!implicated} (e.g. one isolated,
    inherently ambiguous pair). *)

val lied_volume : violation list -> int
(** Sum of absolute discrepancies — the total lied volume a round must
    account for (ring volume + residual volume; see {!Cycle}). *)
