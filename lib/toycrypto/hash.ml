type key = int64 * int64

(* The four state words live in local refs that no closure captures,
   so the native compiler keeps them unboxed in registers: the rounds
   are written out inline (once for compression, once for
   finalization) rather than as a [sipround] helper, which would force
   every ref onto the heap.  Message words are read with the
   [Bytes.get_int64_le] primitive, also unboxed. *)
let siphash ~key:(k0, k1) msg =
  let v0 = ref (Int64.logxor k0 0x736f6d6570736575L) in
  let v1 = ref (Int64.logxor k1 0x646f72616e646f6dL) in
  let v2 = ref (Int64.logxor k0 0x6c7967656e657261L) in
  let v3 = ref (Int64.logxor k1 0x7465646279746573L) in
  let len = Bytes.length msg in
  let full_blocks = len / 8 in
  (* Blocks [0, full_blocks) are whole words; block [full_blocks] is
     the tail bytes with the length in the top byte. *)
  for i = 0 to full_blocks do
    let m =
      if i < full_blocks then Bytes.get_int64_le msg (i * 8)
      else begin
        let b = ref (Int64.shift_left (Int64.of_int (len land 0xff)) 56) in
        for j = 0 to (len land 7) - 1 do
          let byte = Int64.of_int (Char.code (Bytes.unsafe_get msg ((i * 8) + j))) in
          b := Int64.logor !b (Int64.shift_left byte (8 * j))
        done;
        !b
      end
    in
    v3 := Int64.logxor !v3 m;
    for _ = 1 to 2 do
      v0 := Int64.add !v0 !v1;
      v1 := Int64.logor (Int64.shift_left !v1 13) (Int64.shift_right_logical !v1 51);
      v1 := Int64.logxor !v1 !v0;
      v0 := Int64.logor (Int64.shift_left !v0 32) (Int64.shift_right_logical !v0 32);
      v2 := Int64.add !v2 !v3;
      v3 := Int64.logor (Int64.shift_left !v3 16) (Int64.shift_right_logical !v3 48);
      v3 := Int64.logxor !v3 !v2;
      v0 := Int64.add !v0 !v3;
      v3 := Int64.logor (Int64.shift_left !v3 21) (Int64.shift_right_logical !v3 43);
      v3 := Int64.logxor !v3 !v0;
      v2 := Int64.add !v2 !v1;
      v1 := Int64.logor (Int64.shift_left !v1 17) (Int64.shift_right_logical !v1 47);
      v1 := Int64.logxor !v1 !v2;
      v2 := Int64.logor (Int64.shift_left !v2 32) (Int64.shift_right_logical !v2 32)
    done;
    v0 := Int64.logxor !v0 m
  done;
  v2 := Int64.logxor !v2 0xffL;
  for _ = 1 to 4 do
    v0 := Int64.add !v0 !v1;
    v1 := Int64.logor (Int64.shift_left !v1 13) (Int64.shift_right_logical !v1 51);
    v1 := Int64.logxor !v1 !v0;
    v0 := Int64.logor (Int64.shift_left !v0 32) (Int64.shift_right_logical !v0 32);
    v2 := Int64.add !v2 !v3;
    v3 := Int64.logor (Int64.shift_left !v3 16) (Int64.shift_right_logical !v3 48);
    v3 := Int64.logxor !v3 !v2;
    v0 := Int64.add !v0 !v3;
    v3 := Int64.logor (Int64.shift_left !v3 21) (Int64.shift_right_logical !v3 43);
    v3 := Int64.logxor !v3 !v0;
    v2 := Int64.add !v2 !v1;
    v1 := Int64.logor (Int64.shift_left !v1 17) (Int64.shift_right_logical !v1 47);
    v1 := Int64.logxor !v1 !v2;
    v2 := Int64.logor (Int64.shift_left !v2 32) (Int64.shift_right_logical !v2 32)
  done;
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)

(* [siphash] only reads its buffer, so the string is viewed in place
   rather than copied. *)
let siphash_string ~key s = siphash ~key (Bytes.unsafe_of_string s)

let fnv1a64 s =
  let prime = 0x100000001B3L in
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) prime
  done;
  !h
