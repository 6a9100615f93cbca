type t =
  | Helo of string
  | Mail_from of Address.t
  | Rcpt_to of Address.t
  | Data
  | Rset
  | Noop
  | Quit
  | Vrfy of string

let to_line = function
  | Helo h -> "HELO " ^ h
  | Mail_from a -> String.concat "" [ "MAIL FROM:<"; Address.to_string a; ">" ]
  | Rcpt_to a -> String.concat "" [ "RCPT TO:<"; Address.to_string a; ">" ]
  | Data -> "DATA"
  | Rset -> "RSET"
  | Noop -> "NOOP"
  | Quit -> "QUIT"
  | Vrfy who -> "VRFY " ^ who

let angle_path s =
  (* Accept "<addr>" or bare "addr". *)
  let s = String.trim s in
  let stripped =
    if String.length s >= 2 && s.[0] = '<' && s.[String.length s - 1] = '>' then
      String.sub s 1 (String.length s - 2)
    else s
  in
  Address.of_string stripped

(* Verbs match case-insensitively.  [prefix] is upper case; [line] is
   compared in place, byte by byte, rather than upper-cased and
   sliced — this parse runs on every command of every served session. *)
let rec matches_from line prefix i =
  i >= String.length prefix
  || Char.uppercase_ascii (String.unsafe_get line i) = String.unsafe_get prefix i
     && matches_from line prefix (i + 1)

let starts line prefix =
  String.length line >= String.length prefix && matches_from line prefix 0

let is_verb line verb = String.length line = String.length verb && starts line verb

let rest_after line prefix =
  String.trim
    (String.sub line (String.length prefix) (String.length line - String.length prefix))

let of_line line =
  let line = String.trim line in
  if is_verb line "DATA" then Ok Data
  else if is_verb line "RSET" then Ok Rset
  else if is_verb line "NOOP" then Ok Noop
  else if is_verb line "QUIT" then Ok Quit
  else if starts line "HELO " then
    let h = rest_after line "HELO " in
    if h = "" then Error "HELO requires a hostname" else Ok (Helo h)
  else if starts line "EHLO " then
    (* Treated as HELO: the simulator offers no extensions. *)
    let h = rest_after line "EHLO " in
    if h = "" then Error "EHLO requires a hostname" else Ok (Helo h)
  else if starts line "MAIL FROM:" then
    Result.map (fun a -> Mail_from a) (angle_path (rest_after line "MAIL FROM:"))
  else if starts line "RCPT TO:" then
    Result.map (fun a -> Rcpt_to a) (angle_path (rest_after line "RCPT TO:"))
  else if starts line "VRFY " then Ok (Vrfy (rest_after line "VRFY "))
  else Error (Printf.sprintf "unrecognized command: %S" line)

let equal a b =
  match (a, b) with
  | Helo x, Helo y | Vrfy x, Vrfy y -> String.equal x y
  | Mail_from x, Mail_from y | Rcpt_to x, Rcpt_to y -> Address.equal x y
  | Data, Data | Rset, Rset | Noop, Noop | Quit, Quit -> true
  | (Helo _ | Mail_from _ | Rcpt_to _ | Data | Rset | Noop | Quit | Vrfy _), _ ->
      false

let pp ppf t = Format.pp_print_string ppf (to_line t)
