(* Tests for the cryptographic substrate. *)

let rng () = Sim.Rng.create 2024

(* ------------------------------------------------------------------ *)
(* SipHash-2-4 — checked against the reference vectors of Aumasson &
   Bernstein (key 000102...0f, inputs 00, 0001, ...).                  *)
(* ------------------------------------------------------------------ *)

let reference_key : Toycrypto.Hash.key = (0x0706050403020100L, 0x0F0E0D0C0B0A0908L)

let input_bytes n = Bytes.init n (fun i -> Char.chr i)

let test_siphash_vectors () =
  let cases =
    [
      (0, 0x726fdb47dd0e0e31L);
      (1, 0x74f839c593dc67fdL);
      (2, 0x0d6c8009d9a94f5aL);
      (3, 0x85676696d7fb7e2dL);
      (8, 0x93f5f5799a932462L);
    ]
  in
  List.iter
    (fun (len, expected) ->
      Alcotest.(check int64)
        (Printf.sprintf "len %d" len)
        expected
        (Toycrypto.Hash.siphash ~key:reference_key (input_bytes len)))
    cases

let test_siphash_key_sensitivity () =
  let m = Bytes.of_string "attack at dawn" in
  let h1 = Toycrypto.Hash.siphash ~key:(1L, 2L) m in
  let h2 = Toycrypto.Hash.siphash ~key:(1L, 3L) m in
  Alcotest.(check bool) "different keys differ" true (h1 <> h2)

let test_siphash_message_sensitivity () =
  let h1 = Toycrypto.Hash.siphash_string ~key:(1L, 2L) "hello world" in
  let h2 = Toycrypto.Hash.siphash_string ~key:(1L, 2L) "hello worle" in
  Alcotest.(check bool) "one byte flips hash" true (h1 <> h2)

let test_fnv1a64 () =
  (* Known FNV-1a 64-bit values. *)
  Alcotest.(check int64) "empty" 0xcbf29ce484222325L (Toycrypto.Hash.fnv1a64 "");
  Alcotest.(check int64) "'a'" 0xaf63dc4c8601ec8cL (Toycrypto.Hash.fnv1a64 "a")

(* ------------------------------------------------------------------ *)
(* XTEA                                                                *)
(* ------------------------------------------------------------------ *)

let test_xtea_roundtrip_block () =
  let k = Toycrypto.Xtea.key_of_words 0x00010203 0x04050607 0x08090a0b 0x0c0d0e0f in
  let blocks = [ 0L; 1L; 0x4142434445464748L; Int64.minus_one; 0x123456789ABCDEFL ] in
  List.iter
    (fun b ->
      let c = Toycrypto.Xtea.encrypt_block k b in
      Alcotest.(check bool) "cipher differs" true (c <> b);
      Alcotest.(check int64) "roundtrip" b (Toycrypto.Xtea.decrypt_block k c))
    blocks

let test_xtea_key_matters () =
  let k1 = Toycrypto.Xtea.key_of_words 1 2 3 4 in
  let k2 = Toycrypto.Xtea.key_of_words 1 2 3 5 in
  let b = 0xDEADBEEFL in
  Alcotest.(check bool) "different key, different cipher" true
    (Toycrypto.Xtea.encrypt_block k1 b <> Toycrypto.Xtea.encrypt_block k2 b)

let test_xtea_cbc_roundtrip () =
  let r = rng () in
  let k = Toycrypto.Xtea.random_key r in
  let cases =
    [ ""; "x"; "12345678"; "123456789"; String.make 1000 'z'; "e-penny payment" ]
  in
  List.iter
    (fun plain ->
      let iv = Sim.Rng.int64 r in
      let cipher = Toycrypto.Xtea.encrypt_cbc k ~iv (Bytes.of_string plain) in
      Alcotest.(check bool) "length multiple of 8" true
        (Bytes.length cipher mod 8 = 0);
      Alcotest.(check bool) "padded strictly longer" true
        (Bytes.length cipher > String.length plain);
      match Toycrypto.Xtea.decrypt_cbc k ~iv cipher with
      | Some out -> Alcotest.(check string) "roundtrip" plain (Bytes.to_string out)
      | None -> Alcotest.fail "decryption failed")
    cases

let test_xtea_cbc_wrong_key () =
  let r = rng () in
  let k1 = Toycrypto.Xtea.random_key r in
  let k2 = Toycrypto.Xtea.random_key r in
  let iv = Sim.Rng.int64 r in
  let cipher = Toycrypto.Xtea.encrypt_cbc k1 ~iv (Bytes.of_string "secret") in
  (* Wrong key almost surely breaks padding; at minimum it must not
     yield the plaintext. *)
  (match Toycrypto.Xtea.decrypt_cbc k2 ~iv cipher with
  | None -> ()
  | Some out ->
      Alcotest.(check bool) "wrong key yields garbage" true
        (Bytes.to_string out <> "secret"));
  (* Truncated input is rejected outright. *)
  Alcotest.(check bool) "truncation rejected" true
    (Toycrypto.Xtea.decrypt_cbc k1 ~iv (Bytes.sub cipher 0 4) = None)

let test_xtea_cbc_blocks_chained () =
  (* Two identical plaintext blocks must encrypt differently under CBC. *)
  let r = rng () in
  let k = Toycrypto.Xtea.random_key r in
  let plain = Bytes.of_string (String.make 16 'A') in
  let cipher = Toycrypto.Xtea.encrypt_cbc k ~iv:42L plain in
  Alcotest.(check bool) "block 0 <> block 1" true
    (Bytes.sub cipher 0 8 <> Bytes.sub cipher 8 8)

(* ------------------------------------------------------------------ *)
(* Differential laws against the reference implementations            *)
(* ------------------------------------------------------------------ *)

let key_gen = QCheck.Gen.(pair ui64 ui64)

let siphash_matches_reference =
  (* Every prefix of a random 300-byte message, so each case covers
     every tail length (0-7) and every block count up to 37. *)
  QCheck.Test.make ~name:"siphash equals the reference on lengths 0-300" ~count:60
    (QCheck.make QCheck.Gen.(pair key_gen (string_size (return 300))))
    (fun (key, msg) ->
      let ok = ref true in
      for len = 0 to 300 do
        let prefix = String.sub msg 0 len in
        let expected = Reference.Siphash.siphash ~key (Bytes.of_string prefix) in
        if Toycrypto.Hash.siphash ~key (Bytes.of_string prefix) <> expected
           || Toycrypto.Hash.siphash_string ~key prefix <> expected
        then ok := false
      done;
      !ok)

let xtea_case_gen =
  QCheck.Gen.(
    quad (quad ui64 ui64 ui64 ui64) ui64 (string_size (int_range 0 100)) ui64)

let xtea_key (a, b, c, d) =
  let word x = Int64.to_int x in
  let k = Toycrypto.Xtea.key_of_words (word a) (word b) (word c) (word d) in
  (k, Toycrypto.Xtea.key_words k)

let xtea_cbc_matches_reference =
  QCheck.Test.make ~name:"xtea cbc equals the reference" ~count:300
    (QCheck.make xtea_case_gen)
    (fun (words, iv, plain, _) ->
      let k, rk = xtea_key words in
      let plain = Bytes.of_string plain in
      let cipher = Toycrypto.Xtea.encrypt_cbc k ~iv plain in
      (* Garbage of the same length decrypts to whatever the reference
         says — almost always a padding failure, occasionally bytes. *)
      let garbage = Bytes.map (fun c -> Char.chr (Char.code c lxor 0x5a)) cipher in
      let ragged = Bytes.sub cipher 0 (Bytes.length cipher - 1) in
      Bytes.equal cipher (Reference.Xtea.encrypt_cbc rk ~iv plain)
      && Toycrypto.Xtea.decrypt_cbc k ~iv cipher = Some plain
      && List.for_all
           (fun c -> Toycrypto.Xtea.decrypt_cbc k ~iv c = Reference.Xtea.decrypt_cbc rk ~iv c)
           [ cipher; garbage; ragged; Bytes.empty ])

let xtea_block_matches_reference =
  QCheck.Test.make ~name:"xtea blocks equal the reference" ~count:300
    (QCheck.make xtea_case_gen)
    (fun (words, _, _, block) ->
      let k, rk = xtea_key words in
      Toycrypto.Xtea.encrypt_block k block = Reference.Xtea.encrypt_block rk block
      && Toycrypto.Xtea.decrypt_block k block = Reference.Xtea.decrypt_block rk block)

(* ------------------------------------------------------------------ *)
(* RSA                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mod_pow () =
  Alcotest.(check int) "3^4 mod 5" 1 (Toycrypto.Rsa.mod_pow 3 4 5);
  Alcotest.(check int) "2^10 mod 1000" 24 (Toycrypto.Rsa.mod_pow 2 10 1000);
  Alcotest.(check int) "fermat" 1 (Toycrypto.Rsa.mod_pow 2 1_000_002 1_000_003)

let test_primality () =
  let r = rng () in
  let primes = [ 2; 3; 5; 7; 104729; 1_000_003; 32749 ] in
  let composites = [ 1; 4; 9; 104730; 1_000_001; 561; 41041 (* Carmichael *) ] in
  List.iter
    (fun p ->
      Alcotest.(check bool) (string_of_int p) true (Toycrypto.Rsa.is_probable_prime r p))
    primes;
  List.iter
    (fun c ->
      Alcotest.(check bool) (string_of_int c) false
        (Toycrypto.Rsa.is_probable_prime r c))
    composites

let test_rsa_roundtrip () =
  let r = rng () in
  let pk, sk = Toycrypto.Rsa.generate r in
  let messages = [ 0; 1; 2; 12345; Toycrypto.Rsa.max_chunk pk ] in
  List.iter
    (fun m ->
      Alcotest.(check int) (string_of_int m) m
        (Toycrypto.Rsa.decrypt sk (Toycrypto.Rsa.encrypt pk m)))
    messages

let test_rsa_out_of_range () =
  let r = rng () in
  let pk, _ = Toycrypto.Rsa.generate r in
  Alcotest.(check bool) "raises on m >= n" true
    (try
       ignore (Toycrypto.Rsa.encrypt pk (Toycrypto.Rsa.max_chunk pk + 1));
       false
     with Invalid_argument _ -> true)

let test_rsa_distinct_keys () =
  let r = rng () in
  let pk1, _ = Toycrypto.Rsa.generate r in
  let pk2, sk2 = Toycrypto.Rsa.generate r in
  Alcotest.(check bool) "distinct moduli" true
    (Toycrypto.Rsa.key_id pk1 <> Toycrypto.Rsa.key_id pk2);
  (* Decrypting with the wrong key does not invert. *)
  let c = Toycrypto.Rsa.encrypt pk1 4242 in
  Alcotest.(check bool) "wrong key fails" true (Toycrypto.Rsa.decrypt sk2 c <> 4242)

let rsa_roundtrip_prop =
  QCheck.Test.make ~name:"rsa roundtrip for random messages" ~count:100
    QCheck.(pair small_nat (int_bound 10_000))
    (fun (seed, m) ->
      let r = Sim.Rng.create seed in
      let pk, sk = Toycrypto.Rsa.generate r in
      let m = m mod Toycrypto.Rsa.max_chunk pk in
      Toycrypto.Rsa.decrypt sk (Toycrypto.Rsa.encrypt pk m) = m)

(* ------------------------------------------------------------------ *)
(* Seal / unseal (NCR / DCR)                                           *)
(* ------------------------------------------------------------------ *)

let test_seal_roundtrip () =
  let r = rng () in
  let pk, sk = Toycrypto.Rsa.generate r in
  let payloads = [ ""; "x"; "buy 500 e-pennies nonce 42"; String.make 500 'q' ] in
  List.iter
    (fun p ->
      let sealed = Toycrypto.Seal.seal r pk (Bytes.of_string p) in
      match Toycrypto.Seal.unseal sk sealed with
      | Some out -> Alcotest.(check string) "roundtrip" p (Bytes.to_string out)
      | None -> Alcotest.fail "unseal failed")
    payloads

let test_seal_wrong_recipient () =
  let r = rng () in
  let pk1, _ = Toycrypto.Rsa.generate r in
  let _, sk2 = Toycrypto.Rsa.generate r in
  let sealed = Toycrypto.Seal.seal r pk1 (Bytes.of_string "for the bank only") in
  Alcotest.(check bool) "other key cannot open" true
    (Toycrypto.Seal.unseal sk2 sealed = None)

let test_seal_tamper_detected () =
  let r = rng () in
  let pk, sk = Toycrypto.Rsa.generate r in
  let sealed = Toycrypto.Seal.seal r pk (Bytes.of_string "sell 100") in
  let corrupted = Toycrypto.Seal.flip_bit sealed in
  Alcotest.(check bool) "bit flip detected" true
    (Toycrypto.Seal.unseal sk corrupted = None)

let test_seal_recipient_id () =
  let r = rng () in
  let pk, _ = Toycrypto.Rsa.generate r in
  let sealed = Toycrypto.Seal.seal r pk (Bytes.of_string "hello") in
  Alcotest.(check int) "recipient tracked" (Toycrypto.Rsa.key_id pk)
    (Toycrypto.Seal.recipient_id sealed)

let test_seal_randomized () =
  (* Sealing the same payload twice must produce different envelopes
     (fresh session key and IV). *)
  let r = rng () in
  let pk, _ = Toycrypto.Rsa.generate r in
  let a = Toycrypto.Seal.seal r pk (Bytes.of_string "same") in
  let b = Toycrypto.Seal.seal r pk (Bytes.of_string "same") in
  Alcotest.(check bool) "probabilistic encryption" true (a <> b)

let test_seal_size () =
  let r = rng () in
  let pk, _ = Toycrypto.Rsa.generate r in
  let sealed = Toycrypto.Seal.seal r pk (Bytes.of_string "0123456789") in
  Alcotest.(check bool) "size covers ciphertext and key" true
    (Toycrypto.Seal.size_bytes sealed > 10)

let seal_roundtrip_prop =
  QCheck.Test.make ~name:"seal/unseal roundtrip" ~count:100
    QCheck.(pair small_nat string)
    (fun (seed, payload) ->
      let r = Sim.Rng.create (seed + 77) in
      let pk, sk = Toycrypto.Rsa.generate r in
      let sealed = Toycrypto.Seal.seal r pk (Bytes.of_string payload) in
      Toycrypto.Seal.unseal sk sealed = Some (Bytes.of_string payload))

(* ------------------------------------------------------------------ *)
(* Nonce (NNC)                                                         *)
(* ------------------------------------------------------------------ *)

let test_nonce_nonrepetition () =
  let g = Toycrypto.Nonce.create (rng ()) in
  let seen = Hashtbl.create 1024 in
  for _ = 1 to 10_000 do
    let n = Toycrypto.Nonce.next g in
    Alcotest.(check bool) "fresh" false (Hashtbl.mem seen n);
    Hashtbl.replace seen n ()
  done;
  Alcotest.(check int) "count" 10_000 (Toycrypto.Nonce.count g)

let test_nonce_unpredictable_low_bits () =
  (* Two generators with different seeds must not produce the same
     low-bit stream. *)
  let g1 = Toycrypto.Nonce.create (Sim.Rng.create 1) in
  let g2 = Toycrypto.Nonce.create (Sim.Rng.create 2) in
  let lows g = List.init 10 (fun _ -> Int64.logand (Toycrypto.Nonce.next g) 0xFFFFFFFFL) in
  Alcotest.(check bool) "streams differ" true (lows g1 <> lows g2)

let test_nonce_tracker () =
  let t = Toycrypto.Nonce.Tracker.create () in
  Alcotest.(check bool) "first use" true (Toycrypto.Nonce.Tracker.first_use t 42L);
  Alcotest.(check bool) "replay rejected" false
    (Toycrypto.Nonce.Tracker.first_use t 42L);
  Alcotest.(check bool) "seen" true (Toycrypto.Nonce.Tracker.seen t 42L);
  Alcotest.(check bool) "unseen" false (Toycrypto.Nonce.Tracker.seen t 43L)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "toycrypto"
    [
      ( "siphash",
        [
          Alcotest.test_case "reference vectors" `Quick test_siphash_vectors;
          Alcotest.test_case "key sensitivity" `Quick test_siphash_key_sensitivity;
          Alcotest.test_case "message sensitivity" `Quick test_siphash_message_sensitivity;
          Alcotest.test_case "fnv1a64" `Quick test_fnv1a64;
        ]
        @ qcheck [ siphash_matches_reference ] );
      ( "xtea",
        [
          Alcotest.test_case "block roundtrip" `Quick test_xtea_roundtrip_block;
          Alcotest.test_case "key matters" `Quick test_xtea_key_matters;
          Alcotest.test_case "cbc roundtrip" `Quick test_xtea_cbc_roundtrip;
          Alcotest.test_case "cbc wrong key" `Quick test_xtea_cbc_wrong_key;
          Alcotest.test_case "cbc chaining" `Quick test_xtea_cbc_blocks_chained;
        ]
        @ qcheck [ xtea_cbc_matches_reference; xtea_block_matches_reference ] );
      ( "rsa",
        Alcotest.test_case "mod_pow" `Quick test_mod_pow
        :: Alcotest.test_case "primality" `Quick test_primality
        :: Alcotest.test_case "roundtrip" `Quick test_rsa_roundtrip
        :: Alcotest.test_case "out of range" `Quick test_rsa_out_of_range
        :: Alcotest.test_case "distinct keys" `Quick test_rsa_distinct_keys
        :: qcheck [ rsa_roundtrip_prop ] );
      ( "seal",
        Alcotest.test_case "roundtrip" `Quick test_seal_roundtrip
        :: Alcotest.test_case "wrong recipient" `Quick test_seal_wrong_recipient
        :: Alcotest.test_case "tamper detected" `Quick test_seal_tamper_detected
        :: Alcotest.test_case "recipient id" `Quick test_seal_recipient_id
        :: Alcotest.test_case "randomized" `Quick test_seal_randomized
        :: Alcotest.test_case "size" `Quick test_seal_size
        :: qcheck [ seal_roundtrip_prop ] );
      ( "nonce",
        [
          Alcotest.test_case "nonrepetition" `Quick test_nonce_nonrepetition;
          Alcotest.test_case "unpredictable" `Quick test_nonce_unpredictable_low_bits;
          Alcotest.test_case "tracker" `Quick test_nonce_tracker;
        ] );
    ]
