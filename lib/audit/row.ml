(* A sparse credit row: peer index -> non-zero count.  Under a Zipf
   workload most ISP pairs never exchange mail, so a 10^4-ISP world has
   ~10^8 mostly-zero dense cells but only ~10^5 populated ones; the row
   is a hash table holding exactly the non-zero cells, and every
   deterministic export goes through {!pairs} (sorted, non-zero only)
   so Hashtbl iteration order never leaks into traces, wire bytes or
   snapshots. *)

(* Monomorphic over [int] keys: [Int.equal] instead of the generic
   table's [compare_val], on every credit send and receive.  The hash
   is the generic [Hashtbl.hash], so buckets and iteration order are
   those of a generic [(int, int) Hashtbl.t] (test_audit checks it). *)
module Cells = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = { n : int; cells : int Cells.t }

let create ~n =
  if n <= 0 then invalid_arg "Audit.Row.create: n must be positive";
  { n; cells = Cells.create 8 }

let n t = t.n

let check t peer ctx =
  if peer < 0 || peer >= t.n then
    invalid_arg (Printf.sprintf "Audit.Row.%s: peer %d outside 0..%d" ctx peer (t.n - 1))

let find t peer = match Cells.find_opt t.cells peer with Some v -> v | None -> 0

let get t peer =
  check t peer "get";
  find t peer

(* Zero cells are removed, not stored: [cardinal] counts populated
   cells and [pairs] never emits a zero, keeping the canonical form. *)
let set t peer v =
  check t peer "set";
  if v = 0 then Cells.remove t.cells peer else Cells.replace t.cells peer v

let add t peer dv =
  check t peer "add";
  if dv <> 0 then begin
    let v = find t peer + dv in
    if v = 0 then Cells.remove t.cells peer else Cells.replace t.cells peer v
  end

let cardinal t = Cells.length t.cells
let is_empty t = Cells.length t.cells = 0

let sum t = Cells.fold (fun _ v acc -> acc + v) t.cells 0

(* Unordered — use only for order-insensitive folds (sums, carries). *)
let iter f t = Cells.iter f t.cells

let pairs t =
  let a = Array.make (Cells.length t.cells) (0, 0) in
  let i = ref 0 in
  Cells.iter
    (fun peer v ->
      a.(!i) <- (peer, v);
      incr i)
    t.cells;
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) a;
  a

let to_dense t =
  let a = Array.make t.n 0 in
  Cells.iter (fun peer v -> a.(peer) <- v) t.cells;
  a

let of_pairs ~n ps =
  let t = create ~n in
  Array.iter
    (fun (peer, v) ->
      check t peer "of_pairs";
      if Cells.mem t.cells peer then
        invalid_arg (Printf.sprintf "Audit.Row.of_pairs: duplicate peer %d" peer);
      if v <> 0 then Cells.replace t.cells peer v)
    ps;
  t

let of_dense a =
  let t = create ~n:(Array.length a) in
  Array.iteri (fun peer v -> if v <> 0 then Cells.replace t.cells peer v) a;
  t

let add_row t src =
  if src.n <> t.n then invalid_arg "Audit.Row.add_row: size mismatch";
  Cells.iter (fun peer v -> add t peer v) src.cells

let copy t = { n = t.n; cells = Cells.copy t.cells }
let clear t = Cells.reset t.cells

let equal a b =
  a.n = b.n
  && Cells.length a.cells = Cells.length b.cells
  && Cells.fold
       (fun peer v acc ->
         acc && match Cells.find_opt b.cells peer with Some w -> w = v | None -> false)
       a.cells true

(* The canonical sorted-pairs form is also the persisted form, so equal
   rows encode to identical bytes regardless of Hashtbl internals. *)
let encode w t =
  Persist.Codec.W.array
    (Persist.Codec.W.pair Persist.Codec.W.int Persist.Codec.W.int)
    w (pairs t)

let restore r ~n =
  let ps =
    Persist.Codec.R.array
      (Persist.Codec.R.pair Persist.Codec.R.int Persist.Codec.R.int)
      r
  in
  match of_pairs ~n ps with
  | t -> t
  | exception Invalid_argument msg -> Persist.Codec.R.corrupt r msg
