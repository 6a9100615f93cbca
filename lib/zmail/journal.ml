module W = Persist.Codec.W
module R = Persist.Codec.R

type t = {
  disk : Sim.Disk.t;
  group : int;
  mutable seq : int;  (** Next frame sequence number on the device. *)
  mutable lazy_records : int;  (** Unflushed lazy records (group commit). *)
  mutable since_checkpoint : int;
  mutable appended : int;
  mutable replayed : int;
  mutable replaying : bool;
}

let tag_checkpoint = 0

(* Rewrite the log as one fresh checkpoint once this many delta records
   accumulate. *)
let compact_after = 512

let create ~group disk =
  if group < 1 then invalid_arg "Journal.create: group must be positive";
  {
    disk;
    group;
    seq = 0;
    lazy_records = 0;
    since_checkpoint = 0;
    appended = 0;
    replayed = 0;
    replaying = false;
  }

let disk j = j.disk
let appended j = j.appended
let replayed j = j.replayed
let power_cut j = Sim.Disk.power_cut j.disk

let crc body = Int32.to_int (Persist.Codec.Crc32.string body) land 0xFFFFFFFF

let image encode x =
  let body = Persist.Codec.to_string encode x in
  let w = W.create () in
  W.str w body;
  W.u32 w (crc body);
  W.contents w

let restore_image restore s =
  Persist.Codec.decode
    (fun r ->
      let body = R.str r in
      if crc body <> R.u32 r then R.corrupt r "durable image CRC mismatch";
      match Persist.Codec.decode restore body with
      | Ok () -> ()
      | Error msg -> R.corrupt r msg)
    s

let checkpoint j ~image =
  let payload =
    Persist.Codec.to_string
      (fun w () ->
        W.u8 w tag_checkpoint;
        W.str w image)
      ()
  in
  Sim.Disk.reset_to j.disk (Persist.Wal.frame ~seq:0 payload);
  j.seq <- 1;
  j.lazy_records <- 0;
  j.since_checkpoint <- 0

let append j ~flush ~image writer =
  if not j.replaying then begin
    let payload = Persist.Codec.to_string (fun w () -> writer w) () in
    Sim.Disk.append j.disk (Persist.Wal.frame ~seq:j.seq payload);
    j.seq <- j.seq + 1;
    j.appended <- j.appended + 1;
    j.since_checkpoint <- j.since_checkpoint + 1;
    if not flush then j.lazy_records <- j.lazy_records + 1;
    if flush || j.lazy_records >= j.group then begin
      Sim.Disk.flush j.disk;
      j.lazy_records <- 0
    end;
    if j.since_checkpoint >= compact_after then checkpoint j ~image:(image ())
  end

let recover j ~restore ~replay =
  match (Persist.Wal.scan (Sim.Disk.contents j.disk)).Persist.Wal.records with
  | [] -> Error "no intact checkpoint record in the log"
  | first :: deltas -> (
      let checkpoint =
        Persist.Codec.decode
          (fun r ->
            if R.u8 r <> tag_checkpoint then
              R.corrupt r "first WAL record is not a checkpoint";
            R.str r)
          first
      in
      match checkpoint with
      | Error _ as e -> e
      | Ok image -> (
          match restore_image restore image with
          | Error msg -> Error ("corrupt checkpoint image: " ^ msg)
          | Ok () ->
              j.replaying <- true;
              let outcome =
                try
                  List.iter
                    (fun payload ->
                      let r = R.of_string payload in
                      replay r;
                      R.expect_end r)
                    deltas;
                  Ok ()
                with
                | Persist.Codec.Corrupt msg -> Error msg
                | Failure msg | Invalid_argument msg ->
                    Error ("replay diverged: " ^ msg)
              in
              j.replaying <- false;
              if outcome = Ok () then j.replayed <- List.length deltas;
              outcome))

let encode_state w j =
  Sim.Disk.encode_state w j.disk;
  W.int w j.seq;
  W.int w j.lazy_records;
  W.int w j.since_checkpoint;
  W.int w j.appended;
  W.int w j.replayed

let restore_state r j =
  Sim.Disk.restore_state r j.disk;
  j.seq <- R.int r;
  j.lazy_records <- R.int r;
  j.since_checkpoint <- R.int r;
  j.appended <- R.int r;
  j.replayed <- R.int r
