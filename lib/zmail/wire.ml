type payload =
  | Buy of { amount : Epenny.amount; nonce : int64 }
  | Buy_reply of { nonce : int64; accepted : bool }
  | Sell of { amount : Epenny.amount; nonce : int64 }
  | Sell_reply of { nonce : int64 }
  | Audit_request of { seq : int }
  | Audit_reply of { isp : int; seq : int; credit : (int * int) array }
      (* [credit] is the sparse reported row: (peer, count) sorted by
         peer.  Honest encoders emit the canonical non-zero form
         ([Audit.Row.pairs]); tampered rows may carry explicit zeros,
         which the verifier treats as no claim. *)
  | Transfer of { from_bank : int; to_bank : int; amount : Epenny.amount; xfer_id : int }
  | Transfer_ack of { xfer_id : int }

(* ------------------------------------------------------------------ *)
(* Text codec                                                          *)
(* ------------------------------------------------------------------ *)

(* The text form is what gets sealed and signed, so it is on every
   bank-wire message's path.  Numbers are printed digit by digit into
   the message's own [Buffer] (no [Printf], no intermediate strings,
   no shared scratch: kernels run on several domains). *)

(* Digits of [n <= 0], most significant first, without a sign.  Working
   on the non-positive side makes [min_int] printable. *)
let rec add_digits_neg b n =
  if n <= -10 then add_digits_neg b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_digits_neg b n
  end
  else add_digits_neg b (-n)

(* An [int64] outside the native range splits into a native quotient
   (same sign, non-zero) and one last digit. *)
let add_int64 b (n : int64) =
  if n >= Int64.of_int min_int && n <= Int64.of_int max_int then add_int b (Int64.to_int n)
  else begin
    add_int b (Int64.to_int (Int64.div n 10L));
    Buffer.add_char b (Char.unsafe_chr (48 + abs (Int64.to_int (Int64.rem n 10L))))
  end

let encode p =
  let b =
    Buffer.create
      (match p with
      | Audit_reply { credit; _ } -> 32 + (12 * Array.length credit)
      | _ -> 32)
  in
  let int_field n =
    Buffer.add_char b ' ';
    add_int b n
  in
  let int64_field n =
    Buffer.add_char b ' ';
    add_int64 b n
  in
  (match p with
  | Buy { amount; nonce } ->
      Buffer.add_string b "buy";
      int_field amount;
      int64_field nonce
  | Buy_reply { nonce; accepted } ->
      Buffer.add_string b "buyreply";
      int64_field nonce;
      Buffer.add_string b (if accepted then " true" else " false")
  | Sell { amount; nonce } ->
      Buffer.add_string b "sell";
      int_field amount;
      int64_field nonce
  | Sell_reply { nonce } ->
      Buffer.add_string b "sellreply";
      int64_field nonce
  | Audit_request { seq } ->
      Buffer.add_string b "request";
      int_field seq
  | Audit_reply { isp; seq; credit } ->
      Buffer.add_string b "reply";
      int_field isp;
      int_field seq;
      Buffer.add_char b ' ';
      (* "-" marks an empty row: the cells field is never empty, so
         the message always has exactly four fields. *)
      if Array.length credit = 0 then Buffer.add_char b '-'
      else
        Array.iteri
          (fun i (peer, v) ->
            if i > 0 then Buffer.add_char b ',';
            add_int b peer;
            Buffer.add_char b ':';
            add_int b v)
          credit
  | Transfer { from_bank; to_bank; amount; xfer_id } ->
      Buffer.add_string b "transfer";
      int_field from_bank;
      int_field to_bank;
      int_field amount;
      int_field xfer_id
  | Transfer_ack { xfer_id } ->
      Buffer.add_string b "transferack";
      int_field xfer_id);
  Buffer.contents b

(* The decoder is one left-to-right scan over the string: fields are
   read in place at a cursor, separators are checked as they are
   crossed, and nothing is split into lists.  It accepts only the
   forms [encode] produces — decimal numbers ([-?[0-9]+]),
   [true]/[false], single-space separators — a subset of what splitting
   on spaces and [int_of_string] accept, with the same payload wherever
   both accept (the test suite's reference codec holds it to that).
   Any mismatch raises the private [Malformed], caught once at the
   top, so [decode] is total. *)
exception Malformed

type cursor = { s : string; mutable pos : int }

(* [lit] occurs in [s] at [off]; the caller checks the bounds. *)
let rec same_from s off lit i =
  i = String.length lit
  || (String.unsafe_get s (off + i) = String.unsafe_get lit i && same_from s off lit (i + 1))

(* Consume [lit] at the cursor. *)
let expect c lit =
  let n = String.length lit in
  if c.pos + n > String.length c.s || not (same_from c.s c.pos lit 0) then raise Malformed;
  c.pos <- c.pos + n

let finish c = if c.pos <> String.length c.s then raise Malformed

(* A decimal field, accumulated on the non-positive side so that
   [min_int] parses and anything beyond the native range is refused. *)
let int_field c =
  let s = c.s and len = String.length c.s in
  let neg = c.pos < len && String.unsafe_get s c.pos = '-' in
  if neg then c.pos <- c.pos + 1;
  let start = c.pos in
  let acc = ref 0 in
  while c.pos < len && String.unsafe_get s c.pos >= '0' && String.unsafe_get s c.pos <= '9' do
    let d = Char.code (String.unsafe_get s c.pos) - 48 in
    if !acc < min_int / 10 || !acc * 10 < min_int + d then raise Malformed;
    acc := (!acc * 10) - d;
    c.pos <- c.pos + 1
  done;
  if c.pos = start then raise Malformed;
  if neg then !acc
  else if !acc = min_int then raise Malformed
  else - !acc

let int64_field c =
  let s = c.s and len = String.length c.s in
  let neg = c.pos < len && String.unsafe_get s c.pos = '-' in
  if neg then c.pos <- c.pos + 1;
  let start = c.pos in
  let acc = ref 0L in
  let lim : int64 = Int64.div Int64.min_int 10L in
  while c.pos < len && String.unsafe_get s c.pos >= '0' && String.unsafe_get s c.pos <= '9' do
    let d = Int64.of_int (Char.code (String.unsafe_get s c.pos) - 48) in
    if !acc < lim || Int64.mul !acc 10L < Int64.add Int64.min_int d then
      raise Malformed;
    acc := Int64.sub (Int64.mul !acc 10L) d;
    c.pos <- c.pos + 1
  done;
  if c.pos = start then raise Malformed;
  if neg then !acc
  else if Int64.equal !acc Int64.min_int then raise Malformed
  else Int64.neg !acc

let bool_field c =
  if c.pos < String.length c.s && String.unsafe_get c.s c.pos = 't' then (
    expect c "true";
    true)
  else (
    expect c "false";
    false)

let non_negative n = if n < 0 then raise Malformed else n

(* The cells field: "-" for an empty row, else [p:v(,p:v)*] running to
   the end of the message.  The commas are counted first so the row is
   built straight into its array. *)
let cells_field c =
  let s = c.s and len = String.length c.s in
  if c.pos + 1 = len && String.unsafe_get s c.pos = '-' then begin
    c.pos <- len;
    [||]
  end
  else begin
    let n = ref 1 in
    for i = c.pos to len - 1 do
      if String.unsafe_get s i = ',' then incr n
    done;
    let row = Array.make !n (0, 0) in
    for i = 0 to !n - 1 do
      if i > 0 then expect c ",";
      let peer = int_field c in
      expect c ":";
      let v = int_field c in
      row.(i) <- (peer, v)
    done;
    row
  end

(* Consume [lit] and the space after it, if that is what the cursor
   is at: the message's tag. *)
let tag_is c lit =
  let n = String.length lit in
  c.pos + n < String.length c.s
  && String.unsafe_get c.s (c.pos + n) = ' '
  && same_from c.s c.pos lit 0
  && begin
       c.pos <- c.pos + n + 1;
       true
     end

let decode_exn c =
  let sp () = expect c " " in
  let p =
    if tag_is c "buy" then begin
      let amount = non_negative (int_field c) in
      sp ();
      let nonce = int64_field c in
      Buy { amount; nonce }
    end
    else if tag_is c "buyreply" then begin
      let nonce = int64_field c in
      sp ();
      let accepted = bool_field c in
      Buy_reply { nonce; accepted }
    end
    else if tag_is c "sell" then begin
      let amount = non_negative (int_field c) in
      sp ();
      let nonce = int64_field c in
      Sell { amount; nonce }
    end
    else if tag_is c "sellreply" then Sell_reply { nonce = int64_field c }
    else if tag_is c "request" then Audit_request { seq = int_field c }
    else if tag_is c "reply" then begin
      let isp = int_field c in
      sp ();
      let seq = int_field c in
      sp ();
      let credit = cells_field c in
      Audit_reply { isp; seq; credit }
    end
    else if tag_is c "transfer" then begin
      let from_bank = int_field c in
      sp ();
      let to_bank = int_field c in
      sp ();
      let amount = non_negative (int_field c) in
      sp ();
      let xfer_id = int_field c in
      Transfer { from_bank; to_bank; amount; xfer_id }
    end
    else if tag_is c "transferack" then Transfer_ack { xfer_id = int_field c }
    else raise Malformed
  in
  finish c;
  p

let decode s =
  match decode_exn { s; pos = 0 } with
  | p -> Ok p
  | exception Malformed -> Error (Printf.sprintf "Wire.decode: cannot parse %S" s)

(* Binary codec for snapshots and durable ISP images.  The textual
   [encode]/[decode] pair stays the wire format (sealed/signed bytes
   depend on it); this one is length-prefixed and self-delimiting, so
   payloads can sit inside larger Persist.Codec streams. *)
let encode_bin w p =
  let open Persist.Codec.W in
  match p with
  | Buy { amount; nonce } ->
      u8 w 0;
      int w amount;
      i64 w nonce
  | Buy_reply { nonce; accepted } ->
      u8 w 1;
      i64 w nonce;
      bool w accepted
  | Sell { amount; nonce } ->
      u8 w 2;
      int w amount;
      i64 w nonce
  | Sell_reply { nonce } ->
      u8 w 3;
      i64 w nonce
  | Audit_request { seq } ->
      u8 w 4;
      int w seq
  | Audit_reply { isp; seq; credit } ->
      u8 w 5;
      int w isp;
      int w seq;
      array (pair int int) w credit
  | Transfer { from_bank; to_bank; amount; xfer_id } ->
      u8 w 6;
      int w from_bank;
      int w to_bank;
      int w amount;
      int w xfer_id
  | Transfer_ack { xfer_id } ->
      u8 w 7;
      int w xfer_id

let decode_bin r =
  let open Persist.Codec.R in
  match u8 r with
  | 0 ->
      let amount = int r in
      let nonce = i64 r in
      if amount < 0 then corrupt r "Wire: negative buy amount";
      Buy { amount; nonce }
  | 1 ->
      let nonce = i64 r in
      let accepted = bool r in
      Buy_reply { nonce; accepted }
  | 2 ->
      let amount = int r in
      let nonce = i64 r in
      if amount < 0 then corrupt r "Wire: negative sell amount";
      Sell { amount; nonce }
  | 3 -> Sell_reply { nonce = i64 r }
  | 4 -> Audit_request { seq = int r }
  | 5 ->
      let isp = int r in
      let seq = int r in
      let credit = array (pair int int) r in
      Audit_reply { isp; seq; credit }
  | 6 ->
      let from_bank = int r in
      let to_bank = int r in
      let amount = int r in
      let xfer_id = int r in
      if amount < 0 then corrupt r "Wire: negative transfer amount";
      Transfer { from_bank; to_bank; amount; xfer_id }
  | 7 -> Transfer_ack { xfer_id = int r }
  | tag -> corrupt r (Printf.sprintf "Wire: unknown payload tag %d" tag)

type signed = { payload : payload; signature : int }

(* The toycrypto entry points only read their input, and [unseal]
   returns a fresh buffer, so the encoded text is viewed as bytes (and
   back) in place instead of copied. *)
let encoded_bytes payload = Bytes.unsafe_of_string (encode payload)

let seal_for_bank rng bank_pk payload =
  Toycrypto.Seal.seal rng bank_pk (encoded_bytes payload)

let open_at_bank bank_sk sealed =
  match Toycrypto.Seal.unseal bank_sk sealed with
  | None -> None
  | Some bytes -> Result.to_option (decode (Bytes.unsafe_to_string bytes))

let sign_by_bank bank_sk payload =
  let signature = Toycrypto.Rsa.sign bank_sk (encoded_bytes payload) in
  { payload; signature }

let verify_from_bank bank_pk { payload; signature } =
  if Toycrypto.Rsa.verify_sig bank_pk (encoded_bytes payload) signature
  then Some payload
  else None

(* Structural equality is correct here: payloads are pure data and
   arrays compare element-wise. *)
let equal_payload (a : payload) (b : payload) = a = b

let pp_payload ppf p = Format.pp_print_string ppf (encode p)
