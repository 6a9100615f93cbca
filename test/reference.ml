(* Reference implementations kept as test oracles.

   These are the original straightforward codecs the production modules
   were rewritten from: SipHash-2-4 over closure-captured Int64 state,
   XTEA-CBC over Int64 blocks with the key schedule recomputed every
   round, the Printf/split_on_char text codec of [Zmail.Wire], the
   dense O(n^2) §4.4 pair scan the sparse [Audit.Verify] replaced, the
   SMTP per-message idioms ([String.contains]/[String.trim] header
   check, [string_of_int] stamps), CRC-32 over a closure-captured
   [Int32] accumulator, and the binary-search samplers' linear-scan
   specification.  They
   are slow and allocate freely, which is the point: each is short
   enough to check against its specification by eye, and the
   differential laws in the test suites hold the fast versions to them
   byte for byte.  Nothing outside [test/] links this module. *)

module Siphash = struct
  let rotl x b =
    Int64.logor (Int64.shift_left x b) (Int64.shift_right_logical x (64 - b))

  let load64_le b off =
    let byte i = Int64.of_int (Char.code (Bytes.get b (off + i))) in
    let acc = ref 0L in
    for i = 7 downto 0 do
      acc := Int64.logor (Int64.shift_left !acc 8) (byte i)
    done;
    !acc

  let siphash ~key:(k0, k1) msg =
    let v0 = ref (Int64.logxor k0 0x736f6d6570736575L) in
    let v1 = ref (Int64.logxor k1 0x646f72616e646f6dL) in
    let v2 = ref (Int64.logxor k0 0x6c7967656e657261L) in
    let v3 = ref (Int64.logxor k1 0x7465646279746573L) in
    let sipround () =
      v0 := Int64.add !v0 !v1;
      v1 := rotl !v1 13;
      v1 := Int64.logxor !v1 !v0;
      v0 := rotl !v0 32;
      v2 := Int64.add !v2 !v3;
      v3 := rotl !v3 16;
      v3 := Int64.logxor !v3 !v2;
      v0 := Int64.add !v0 !v3;
      v3 := rotl !v3 21;
      v3 := Int64.logxor !v3 !v0;
      v2 := Int64.add !v2 !v1;
      v1 := rotl !v1 17;
      v1 := Int64.logxor !v1 !v2;
      v2 := rotl !v2 32
    in
    let len = Bytes.length msg in
    let full_blocks = len / 8 in
    for i = 0 to full_blocks - 1 do
      let m = load64_le msg (i * 8) in
      v3 := Int64.logxor !v3 m;
      sipround ();
      sipround ();
      v0 := Int64.logxor !v0 m
    done;
    let b = ref (Int64.shift_left (Int64.of_int (len land 0xff)) 56) in
    let tail = len land 7 in
    for i = 0 to tail - 1 do
      let byte = Int64.of_int (Char.code (Bytes.get msg ((full_blocks * 8) + i))) in
      b := Int64.logor !b (Int64.shift_left byte (8 * i))
    done;
    v3 := Int64.logxor !v3 !b;
    sipround ();
    sipround ();
    v0 := Int64.logxor !v0 !b;
    v2 := Int64.logxor !v2 0xffL;
    sipround ();
    sipround ();
    sipround ();
    sipround ();
    Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)
end

module Xtea = struct
  (* Keys are the four 32-bit words of [Toycrypto.Xtea.key_words]. *)
  type key = int * int * int * int

  let mask32 = 0xFFFFFFFF

  let key_word (k0, k1, k2, k3) i =
    match i land 3 with 0 -> k0 | 1 -> k1 | 2 -> k2 | _ -> k3

  let delta = 0x9E3779B9
  let rounds = 32
  let mix v = (((v lsl 4) lxor (v lsr 5)) + v) land mask32

  let split_block b =
    let v0 = Int64.to_int (Int64.shift_right_logical b 32) land mask32 in
    let v1 = Int64.to_int b land mask32 in
    (v0, v1)

  let join_block v0 v1 =
    Int64.logor
      (Int64.shift_left (Int64.of_int (v0 land mask32)) 32)
      (Int64.of_int (v1 land mask32))

  let encrypt_block k b =
    let v0 = ref 0 and v1 = ref 0 and sum = ref 0 in
    let x, y = split_block b in
    v0 := x;
    v1 := y;
    for _ = 1 to rounds do
      v0 := (!v0 + (mix !v1 lxor ((!sum + key_word k !sum) land mask32))) land mask32;
      sum := (!sum + delta) land mask32;
      v1 :=
        (!v1 + (mix !v0 lxor ((!sum + key_word k (!sum lsr 11)) land mask32)))
        land mask32
    done;
    join_block !v0 !v1

  let decrypt_block k b =
    let v0 = ref 0 and v1 = ref 0 in
    let sum = ref ((delta * rounds) land mask32) in
    let x, y = split_block b in
    v0 := x;
    v1 := y;
    for _ = 1 to rounds do
      v1 :=
        (!v1 - (mix !v0 lxor ((!sum + key_word k (!sum lsr 11)) land mask32)))
        land mask32;
      sum := (!sum - delta) land mask32;
      v0 := (!v0 - (mix !v1 lxor ((!sum + key_word k !sum) land mask32))) land mask32
    done;
    join_block !v0 !v1

  let get_block b off =
    let acc = ref 0L in
    for i = 0 to 7 do
      acc :=
        Int64.logor (Int64.shift_left !acc 8)
          (Int64.of_int (Char.code (Bytes.get b (off + i))))
    done;
    !acc

  let set_block b off v =
    for i = 0 to 7 do
      let byte = Int64.to_int (Int64.shift_right_logical v (8 * (7 - i))) land 0xff in
      Bytes.set b (off + i) (Char.chr byte)
    done

  let encrypt_cbc k ~iv plain =
    let len = Bytes.length plain in
    let pad = 8 - (len mod 8) in
    let padded = Bytes.make (len + pad) (Char.chr pad) in
    Bytes.blit plain 0 padded 0 len;
    let out = Bytes.create (len + pad) in
    let prev = ref iv in
    for i = 0 to ((len + pad) / 8) - 1 do
      let block = Int64.logxor (get_block padded (i * 8)) !prev in
      let c = encrypt_block k block in
      set_block out (i * 8) c;
      prev := c
    done;
    out

  let decrypt_cbc k ~iv cipher =
    let len = Bytes.length cipher in
    if len = 0 || len mod 8 <> 0 then None
    else begin
      let out = Bytes.create len in
      let prev = ref iv in
      for i = 0 to (len / 8) - 1 do
        let c = get_block cipher (i * 8) in
        let p = Int64.logxor (decrypt_block k c) !prev in
        set_block out (i * 8) p;
        prev := c
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
end

module Wire_text = struct
  open Zmail.Wire

  let encode = function
    | Buy { amount; nonce } -> Printf.sprintf "buy %d %Ld" amount nonce
    | Buy_reply { nonce; accepted } -> Printf.sprintf "buyreply %Ld %b" nonce accepted
    | Sell { amount; nonce } -> Printf.sprintf "sell %d %Ld" amount nonce
    | Sell_reply { nonce } -> Printf.sprintf "sellreply %Ld" nonce
    | Audit_request { seq } -> Printf.sprintf "request %d" seq
    | Audit_reply { isp; seq; credit } ->
        Printf.sprintf "reply %d %d %s" isp seq
          (if Array.length credit = 0 then "-"
           else
             String.concat ","
               (Array.to_list
                  (Array.map (fun (p, v) -> Printf.sprintf "%d:%d" p v) credit)))
    | Transfer { from_bank; to_bank; amount; xfer_id } ->
        Printf.sprintf "transfer %d %d %d %d" from_bank to_bank amount xfer_id
    | Transfer_ack { xfer_id } -> Printf.sprintf "transferack %d" xfer_id

  let decode s =
    let fail () = Error (Printf.sprintf "Wire.decode: cannot parse %S" s) in
    match String.split_on_char ' ' s with
    | [ "buy"; amount; nonce ] -> (
        match (int_of_string_opt amount, Int64.of_string_opt nonce) with
        | Some amount, Some nonce when amount >= 0 -> Ok (Buy { amount; nonce })
        | _ -> fail ())
    | [ "buyreply"; nonce; accepted ] -> (
        match (Int64.of_string_opt nonce, bool_of_string_opt accepted) with
        | Some nonce, Some accepted -> Ok (Buy_reply { nonce; accepted })
        | _ -> fail ())
    | [ "sell"; amount; nonce ] -> (
        match (int_of_string_opt amount, Int64.of_string_opt nonce) with
        | Some amount, Some nonce when amount >= 0 -> Ok (Sell { amount; nonce })
        | _ -> fail ())
    | [ "sellreply"; nonce ] -> (
        match Int64.of_string_opt nonce with
        | Some nonce -> Ok (Sell_reply { nonce })
        | None -> fail ())
    | [ "request"; seq ] -> (
        match int_of_string_opt seq with
        | Some seq -> Ok (Audit_request { seq })
        | None -> fail ())
    | [ "reply"; isp; seq; credit ] -> (
        match (int_of_string_opt isp, int_of_string_opt seq) with
        | Some isp, Some seq ->
            if credit = "-" then Ok (Audit_reply { isp; seq; credit = [||] })
            else
              let cells = String.split_on_char ',' credit in
              let parsed =
                List.filter_map
                  (fun cell ->
                    match String.split_on_char ':' cell with
                    | [ p; v ] -> (
                        match (int_of_string_opt p, int_of_string_opt v) with
                        | Some p, Some v -> Some (p, v)
                        | _ -> None)
                    | _ -> None)
                  cells
              in
              if List.length parsed = List.length cells then
                Ok (Audit_reply { isp; seq; credit = Array.of_list parsed })
              else fail ()
        | _ -> fail ())
    | [ "transfer"; from_bank; to_bank; amount; xfer_id ] -> (
        match
          ( int_of_string_opt from_bank,
            int_of_string_opt to_bank,
            int_of_string_opt amount,
            int_of_string_opt xfer_id )
        with
        | Some from_bank, Some to_bank, Some amount, Some xfer_id when amount >= 0 ->
            Ok (Transfer { from_bank; to_bank; amount; xfer_id })
        | _ -> fail ())
    | [ "transferack"; xfer_id ] -> (
        match int_of_string_opt xfer_id with
        | Some xfer_id -> Ok (Transfer_ack { xfer_id })
        | None -> fail ())
    | _ -> fail ()
end

(* The §4.4 check straight from its definition: every compliant pair
   [a < b] whose dense rows fail [reported.(a).(b) + reported.(b).(a) = 0],
   in row-major order.  Rows of non-compliant ISPs are never read. *)
module Audit = struct
  let verify ~reported ~compliant : Audit.Verify.violation list =
    let n = Array.length compliant in
    if Array.length reported <> n then invalid_arg "Reference.Audit.verify: size mismatch";
    let violations = ref [] in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        if compliant.(a) && compliant.(b) then begin
          let discrepancy = reported.(a).(b) + reported.(b).(a) in
          if discrepancy <> 0 then
            violations := { Audit.Verify.isp_a = a; isp_b = b; discrepancy } :: !violations
        end
      done
    done;
    List.rev !violations
end

(* The per-message SMTP idioms the hand-written [Smtp] fast paths
   replaced: the header round-trip condition as [String.contains] and
   [String.trim] state it, and the [string_of_int]-based stamps. *)
module Smtp_seed = struct
  let header_round_trips (n, v) =
    n <> ""
    && (not (String.contains n ' '))
    && (not (String.contains n ':'))
    && (not (String.contains v '\n'))
    && String.equal (String.trim v) v

  let message_id id hostname = "<" ^ string_of_int id ^ "@" ^ hostname ^ ">"

  let command_to_line = function
    | Smtp.Command.Mail_from a -> Printf.sprintf "MAIL FROM:<%s>" (Smtp.Address.to_string a)
    | Smtp.Command.Rcpt_to a -> Printf.sprintf "RCPT TO:<%s>" (Smtp.Address.to_string a)
    | c -> Smtp.Command.to_line c

  (* The verb dispatch of [Command.of_line]: upper-case the whole line,
     then compare [String.sub] prefixes. *)
  let command_of_line line =
    let line = String.trim line in
    let upper = String.uppercase_ascii line in
    let starts prefix =
      String.length upper >= String.length prefix
      && String.sub upper 0 (String.length prefix) = prefix
    in
    let rest_after prefix =
      String.trim
        (String.sub line (String.length prefix) (String.length line - String.length prefix))
    in
    let angle_path s =
      let s = String.trim s in
      let stripped =
        if String.length s >= 2 && s.[0] = '<' && s.[String.length s - 1] = '>' then
          String.sub s 1 (String.length s - 2)
        else s
      in
      Smtp.Address.of_string stripped
    in
    let open Smtp.Command in
    if upper = "DATA" then Ok Data
    else if upper = "RSET" then Ok Rset
    else if upper = "NOOP" then Ok Noop
    else if upper = "QUIT" then Ok Quit
    else if starts "HELO " then
      let h = rest_after "HELO " in
      if h = "" then Error "HELO requires a hostname" else Ok (Helo h)
    else if starts "EHLO " then
      let h = rest_after "EHLO " in
      if h = "" then Error "EHLO requires a hostname" else Ok (Helo h)
    else if starts "MAIL FROM:" then
      Result.map (fun a -> Mail_from a) (angle_path (rest_after "MAIL FROM:"))
    else if starts "RCPT TO:" then
      Result.map (fun a -> Rcpt_to a) (angle_path (rest_after "RCPT TO:"))
    else if starts "VRFY " then Ok (Vrfy (rest_after "VRFY "))
    else Error (Printf.sprintf "unrecognized command: %S" line)

  (* The field list [Message.mark_payment ?epoch] appends. *)
  let payment_fields ?epoch ~epennies () =
    ("X-Zmail-Payment", string_of_int epennies)
    :: (match epoch with None -> [] | Some seq -> [ ("X-Zmail-Epoch", string_of_int seq) ])
end

(* CRC-32 (IEEE 802.3, reflected 0xEDB88320), byte at a time with an
   [Int32] accumulator threaded through [String.iter]. *)
module Crc32 = struct
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          if Int32.logand !c 1l <> 0l then
            c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else c := Int32.shift_right_logical !c 1
        done;
        !c)

  let string ?(crc = 0l) s =
    let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
    String.iter
      (fun ch ->
        let i =
          Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
        in
        c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
      s;
    Int32.logxor !c 0xFFFFFFFFl
end

(* The table samplers by definition: the first index whose cumulative
   weight strictly exceeds [u], found by a linear scan and clamped to
   the last index, over cdfs accumulated exactly as [Sim.Dist] does. *)
module Dist = struct
  let first_over cdf u =
    let last = Array.length cdf - 1 in
    let rec scan i = if i >= last || cdf.(i) > u then i else scan (i + 1) in
    scan 0

  let zipf ~n ~s =
    let cdf = Array.make n 0. in
    let total = ref 0. in
    for k = 1 to n do
      total := !total +. (1. /. (float_of_int k ** s));
      cdf.(k - 1) <- !total
    done;
    let total = !total in
    fun rng -> first_over cdf (Sim.Rng.unit_float rng *. total) + 1

  let categorical ~weights =
    let n = Array.length weights in
    let cdf = Array.make n 0. in
    let total = ref 0. in
    for i = 0 to n - 1 do
      total := !total +. weights.(i);
      cdf.(i) <- !total
    done;
    let total = !total in
    fun rng -> first_over cdf (Sim.Rng.unit_float rng *. total)
end
