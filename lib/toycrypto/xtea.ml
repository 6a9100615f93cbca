(* A key carries its schedule: [sched.(2r)] and [sched.(2r + 1)] are
   the constants [(sum + k[sum]) land mask32] and
   [(sum' + k[sum' lsr 11]) land mask32] that round [r]'s two halves
   add, with [sum = r * delta] and [sum' = (r + 1) * delta].  They
   depend only on the key, so they are computed once per key instead of
   once per block. *)
type key = { k0 : int; k1 : int; k2 : int; k3 : int; sched : int array }

let mask32 = 0xFFFFFFFF
let delta = 0x9E3779B9
let rounds = 32

let key_of_words a b c d =
  let k0 = a land mask32 and k1 = b land mask32 in
  let k2 = c land mask32 and k3 = d land mask32 in
  let word i = match i land 3 with 0 -> k0 | 1 -> k1 | 2 -> k2 | _ -> k3 in
  let sched = Array.make (2 * rounds) 0 in
  for r = 0 to rounds - 1 do
    let sum = (r * delta) land mask32 in
    let sum' = ((r + 1) * delta) land mask32 in
    sched.(2 * r) <- (sum + word sum) land mask32;
    sched.((2 * r) + 1) <- (sum' + word (sum' lsr 11)) land mask32
  done;
  { k0; k1; k2; k3; sched }

let key_of_int64s hi lo =
  let w x shift = Int64.to_int (Int64.shift_right_logical x shift) land mask32 in
  key_of_words (w hi 32) (w hi 0) (w lo 32) (w lo 0)

let random_key rng = key_of_int64s (Sim.Rng.int64 rng) (Sim.Rng.int64 rng)

let key_words { k0; k1; k2; k3; _ } = (k0, k1, k2, k3)

(* All arithmetic is on 32-bit words held in native ints; a block is a
   big-endian word pair read and written in place with the
   [Bytes.get_int32_be]/[set_int32_be] primitives, so the cipher core
   allocates nothing.  [mix] is left unmasked: only its low 32 bits
   ever reach a word, and xor and add preserve them. *)
let mix v = ((v lsl 4) lxor (v lsr 5)) + v

let get_word b off = Int32.to_int (Bytes.get_int32_be b off) land mask32
let set_word b off v = Bytes.set_int32_be b off (Int32.of_int v)

(* Encipher the pair [(x0, x1)] into [dst] at [off]. *)
let encipher sched x0 x1 dst off =
  let v0 = ref x0 and v1 = ref x1 in
  for r = 0 to rounds - 1 do
    v0 := (!v0 + (mix !v1 lxor Array.unsafe_get sched (2 * r))) land mask32;
    v1 := (!v1 + (mix !v0 lxor Array.unsafe_get sched ((2 * r) + 1))) land mask32
  done;
  set_word dst off !v0;
  set_word dst (off + 4) !v1

(* Decipher the block of [src] at [off] into [dst] at [off], xoring the
   result with [(p0, p1)] (the CBC chaining value; zeros for a raw
   block). *)
let decipher sched src dst off p0 p1 =
  let v0 = ref (get_word src off) and v1 = ref (get_word src (off + 4)) in
  for r = rounds - 1 downto 0 do
    v1 := (!v1 - (mix !v0 lxor Array.unsafe_get sched ((2 * r) + 1))) land mask32;
    v0 := (!v0 - (mix !v1 lxor Array.unsafe_get sched (2 * r))) land mask32
  done;
  set_word dst off (!v0 lxor p0);
  set_word dst (off + 4) (!v1 lxor p1)

let encrypt_block k b =
  let buf = Bytes.create 8 in
  Bytes.set_int64_be buf 0 b;
  encipher k.sched (get_word buf 0) (get_word buf 4) buf 0;
  Bytes.get_int64_be buf 0

let decrypt_block k b =
  let buf = Bytes.create 8 in
  Bytes.set_int64_be buf 0 b;
  decipher k.sched buf buf 0 0 0;
  Bytes.get_int64_be buf 0

let iv_words iv =
  ( Int64.to_int (Int64.shift_right_logical iv 32) land mask32,
    Int64.to_int iv land mask32 )

(* PKCS#7-pad into the output buffer, then encrypt it in place: each
   block is xored with the previous ciphertext block (the IV first). *)
let encrypt_cbc k ~iv plain =
  let len = Bytes.length plain in
  let pad = 8 - (len mod 8) in
  let out = Bytes.create (len + pad) in
  Bytes.blit plain 0 out 0 len;
  Bytes.fill out len pad (Char.unsafe_chr pad);
  let iv0, iv1 = iv_words iv in
  encipher k.sched (get_word out 0 lxor iv0) (get_word out 4 lxor iv1) out 0;
  for i = 1 to ((len + pad) / 8) - 1 do
    let o = 8 * i in
    encipher k.sched
      (get_word out o lxor get_word out (o - 8))
      (get_word out (o + 4) lxor get_word out (o - 4))
      out o
  done;
  out

let decrypt_cbc k ~iv cipher =
  let len = Bytes.length cipher in
  if len = 0 || len mod 8 <> 0 then None
  else begin
    let out = Bytes.create len in
    let iv0, iv1 = iv_words iv in
    decipher k.sched cipher out 0 iv0 iv1;
    for i = 1 to (len / 8) - 1 do
      let o = 8 * i in
      decipher k.sched cipher out o (get_word cipher (o - 8)) (get_word cipher (o - 4))
    done;
    let pad = Char.code (Bytes.get out (len - 1)) in
    if pad < 1 || pad > 8 || pad > len then None
    else begin
      let valid = ref true in
      for i = len - pad to len - 1 do
        if Char.code (Bytes.get out i) <> pad then valid := false
      done;
      if !valid then Some (Bytes.sub out 0 (len - pad)) else None
    end
  end
