(* Sparse §4.4 pairwise verification.  The dense check walks all
   n(n-1)/2 cells; this accumulator only ever touches the populated
   ones.  Cost is linear in the number of populated cells, which under
   a Zipf workload is far below n^2 — the whole point of the sparse
   audit engine.

   Representation.  A hash table per claim cell — the obvious choice —
   dies at scale for a non-obvious reason: a 10^4-ISP round holds
   ~10^5..10^6 directed cells, and whether the table is stdlib
   [Hashtbl] or a flat open-addressing array, every claim is one
   *random* access into tens of megabytes, i.e. a guaranteed cache
   miss; measured cost per cell doubles between 10^3 and 10^4 ISPs on
   memory latency alone.  So the accumulator never does random access:
   [claim] *appends* the cell to a flat int buffer (sequential
   writes), and the first read sorts the buffer by pair key (LSD radix
   sort — sequential passes over arrays that fit in cache) and
   aggregates equal keys in one linear sweep.  Each (key, value) pair
   is packed into a single int, so sorting needs no permutation of a
   companion array.  Reads after the sort are binary searches over the
   aggregated keys — only the cycle detector asks, and only about the
   few edges of a violating star. *)

type violation = { isp_a : int; isp_b : int; discrepancy : int }

(* Packing: [(key lsl 31) lor (v + bias)] with key < 2^31 and
   |v| < 2^30.  Sorting the packed ints ascending groups equal keys;
   the value offset never disturbs key order. *)
let key_bits = 31
let value_bias = 1 lsl 30
let value_mask = (1 lsl key_bits) - 1

(* In-place LSD radix sort of packed claims *by key only*, 16-bit
   digits: passes start at [key_bits], because grouping equal keys
   does not care how the value bits below order (stability keeps the
   append order, and aggregation sums them regardless).  A 10^4-ISP
   key fits 27 bits, so two sequential counting passes suffice where
   sorting the full packed int would take four; the 65536-entry
   histogram fits in L2. *)
let radix_sort a len =
  if len > 1 then begin
    let digit = 1 lsl 16 in
    let mask = digit - 1 in
    let counts = Array.make digit 0 in
    let src = ref a and dst = ref (Array.make len 0) in
    let max_v = ref 0 in
    for i = 0 to len - 1 do
      if a.(i) > !max_v then max_v := a.(i)
    done;
    let shift = ref key_bits in
    (* The shift bound matters: OCaml's [lsr] is undefined past 62
       bits (hardware takes the count mod 64), so an unguarded
       [max_v lsr shift > 0] test would loop forever once shift
       reaches 64. *)
    while !shift < 62 && !max_v lsr !shift > 0 do
      Array.fill counts 0 digit 0;
      let s = !src in
      for i = 0 to len - 1 do
        let d = (s.(i) lsr !shift) land mask in
        counts.(d) <- counts.(d) + 1
      done;
      let acc = ref 0 in
      for d = 0 to digit - 1 do
        let c = counts.(d) in
        counts.(d) <- !acc;
        acc := !acc + c
      done;
      let t = !dst in
      for i = 0 to len - 1 do
        let v = s.(i) in
        let d = (v lsr !shift) land mask in
        t.(counts.(d)) <- v;
        counts.(d) <- counts.(d) + 1
      done;
      src := t;
      dst := s;
      shift := !shift + 16
    done;
    if !src != a then Array.blit !src 0 a 0 len
  end

(* A growable append-only buffer of packed claims, with its aggregated
   (sorted distinct keys, summed values) form built on first read and
   invalidated by the next append. *)
type side = {
  mutable buf : int array;
  mutable len : int;
  mutable agg_keys : int array;  (* sorted distinct keys *)
  mutable agg_vals : int array;  (* summed value per key *)
  mutable agg_len : int;  (* -1 = not built *)
}

let side_create size =
  {
    buf = Array.make (max 16 size) 0;
    len = 0;
    agg_keys = [||];
    agg_vals = [||];
    agg_len = -1;
  }

let side_push s packed =
  if s.len = Array.length s.buf then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.buf 0 bigger 0 s.len;
    s.buf <- bigger
  end;
  s.buf.(s.len) <- packed;
  s.len <- s.len + 1;
  s.agg_len <- -1

let side_finalize s =
  if s.agg_len < 0 then begin
    radix_sort s.buf s.len;
    if Array.length s.agg_keys < s.len then begin
      s.agg_keys <- Array.make (max 16 s.len) 0;
      s.agg_vals <- Array.make (max 16 s.len) 0
    end;
    let out = ref 0 in
    let i = ref 0 in
    while !i < s.len do
      let key = s.buf.(!i) lsr key_bits in
      let sum = ref 0 in
      while !i < s.len && s.buf.(!i) lsr key_bits = key do
        sum := !sum + ((s.buf.(!i) land value_mask) - value_bias);
        incr i
      done;
      s.agg_keys.(!out) <- key;
      s.agg_vals.(!out) <- !sum;
      incr out
    done;
    s.agg_len <- !out
  end

(* Aggregated value for [key], 0 when absent. *)
let side_get s key =
  side_finalize s;
  let lo = ref 0 and hi = ref (s.agg_len - 1) in
  let found = ref 0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let k = s.agg_keys.(mid) in
    if k = key then begin
      found := s.agg_vals.(mid);
      lo := !hi + 1
    end
    else if k < key then lo := mid + 1
    else hi := mid - 1
  done;
  !found

type acc = {
  n : int;
  present : bool array;
  (* key = a * n + b with a < b; value = running claim(a,b) + claim(b,a). *)
  buckets : side;
  (* Directed claims, kept alongside the pair sum so the collusion
     detector can ask whether a pair's books are mutually consistent
     AND non-trivial (a fabricated coordination edge) as opposed to
     simply silent. *)
  directed : side;  (* key = reporter * n + peer *)
}

(* [expected_cells] pre-sizes the claim buffers.  At 10^4 ISPs a round
   accumulates hundreds of thousands of directed cells; callers that
   hold the reports before verifying (the bank, the bench) know the
   cell count exactly and skip the doubling-growth ladder; everyone
   else gets the old default. *)
let create ?(expected_cells = 256) ~present () =
  let n = Array.length present in
  if n = 0 then invalid_arg "Audit.Verify.create: empty presence map";
  if n > 46340 then
    (* Pair keys must fit the 31-bit packed field: n^2 < 2^31. *)
    invalid_arg "Audit.Verify.create: more than 46340 ISPs";
  {
    n;
    present;
    buckets = side_create expected_cells;
    directed = side_create expected_cells;
  }

let n t = t.n

(* Out-of-range peers are ignored rather than rejected: reported rows
   arrive off the wire, and a malformed claim must not crash the audit
   (the claim simply counts for nothing).  Self-claims, claims whose
   magnitude overflows the packed value field, and claims involving a
   non-present ISP are skipped exactly as the dense scan's
   compliant-pair mask skips them. *)
let claim t ~reporter ~peer v =
  if
    v <> 0
    && v > -value_bias && v < value_bias
    && reporter >= 0 && reporter < t.n
    && peer >= 0 && peer < t.n
    && reporter <> peer
    && t.present.(reporter)
    && t.present.(peer)
  then begin
    let a = min reporter peer and b = max reporter peer in
    side_push t.buckets ((((a * t.n) + b) lsl key_bits) lor (v + value_bias));
    side_push t.directed
      ((((reporter * t.n) + peer) lsl key_bits) lor (v + value_bias))
  end

let populated t =
  side_finalize t.directed;
  let count = ref 0 in
  for i = 0 to t.directed.agg_len - 1 do
    if t.directed.agg_vals.(i) <> 0 then incr count
  done;
  !count

(* The aggregated keys are already sorted, and key order is exactly
   (isp_a, isp_b) lexicographic order — no extra sort needed. *)
let violations t =
  side_finalize t.buckets;
  let vs = ref [] in
  for i = t.buckets.agg_len - 1 downto 0 do
    let d = t.buckets.agg_vals.(i) in
    if d <> 0 then begin
      let key = t.buckets.agg_keys.(i) in
      vs := { isp_a = key / t.n; isp_b = key mod t.n; discrepancy = d } :: !vs
    end
  done;
  !vs

let directed_claim t ~reporter ~peer = side_get t.directed ((reporter * t.n) + peer)

(* A coordination edge: the pair's books agree (discrepancy zero) but
   are not silent (at least one side claims traffic).  Honest disjoint
   strangers have no such edge; colluders fabricating mutual claims to
   keep their own pair clean produce exactly this signature. *)
let consistent_nonzero t a b =
  a <> b
  && a >= 0 && a < t.n && b >= 0 && b < t.n
  && t.present.(a) && t.present.(b)
  && (let lo = min a b and hi = max a b in
      side_get t.buckets ((lo * t.n) + hi) = 0)
  && (directed_claim t ~reporter:a ~peer:b <> 0
      || directed_claim t ~reporter:b ~peer:a <> 0)

let present_count t =
  Array.fold_left (fun acc p -> if p then acc + 1 else acc) 0 t.present

(* Strict-majority offenders, with no ambiguous-pair fallback: an ISP
   violating with more than half of its possible peers lied (a
   fraudulent row disagrees with nearly everyone).  This is the
   conviction half of [suspects]; the fallback-to-implicated half is
   investigation, not conviction. *)
let offenders ~present violations =
  let compliant_count =
    Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 present
  in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun v ->
      List.iter
        (fun isp ->
          Hashtbl.replace counts isp
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts isp)))
        [ v.isp_a; v.isp_b ])
    violations;
  let majority = (compliant_count - 1) / 2 in
  Hashtbl.fold (fun isp n acc -> if n > majority then isp :: acc else acc) counts []
  |> List.sort compare

let lied_volume violations =
  List.fold_left (fun acc v -> acc + abs v.discrepancy) 0 violations

let implicated violations =
  List.concat_map (fun v -> [ v.isp_a; v.isp_b ]) violations
  |> List.sort_uniq compare

let suspects ~present violations =
  match offenders ~present violations with
  | [] -> implicated violations
  | offenders -> offenders
