(* Host clocks, sample statistics and the machine-speed calibration. *)

(* Host time is the process's CPU time (user + system, microsecond
   resolution).  The benchmark is single-threaded and does no I/O, so on
   an idle machine this equals wall time; on a shared machine it leaves
   out the time other processes hold the core, which wall time would
   count as simulator cost. *)
let now () = Sys.time ()

(* Monotonic wall clock with nanosecond resolution, for spans shorter
   than the CPU clock resolves (single engine callbacks and sends). *)
let fine () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let time_fine f =
  let t0 = fine () in
  let r = f () in
  (r, fine () -. t0)

(* A growable buffer of float samples. *)
type buf = { mutable data : Float.Array.t; mutable len : int }

let buf () = { data = Float.Array.create 1024; len = 0 }

let push b x =
  if b.len = Float.Array.length b.data then begin
    let d = Float.Array.create (2 * b.len) in
    Float.Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  Float.Array.set b.data b.len x;
  b.len <- b.len + 1

let to_array b = Array.init b.len (Float.Array.get b.data)

(* Linear interpolation between closest ranks (the "inclusive" method
   of Python's statistics.quantiles); 0 on an empty sample. *)
let quantile a q =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. (pos -. float_of_int lo))

let median a = quantile a 0.5
let median_list l = median (Array.of_list l)

(* Machine speed.  On a shared host the CPU time of fixed work drifts by
   tens of percent over minutes (another tenant on the sibling hardware
   thread, for one), and repetitions inside one run cannot average that
   out.  Each repetition therefore also times a fixed kernel built from
   the standard library only (hashing, allocation and random access into
   an 8 MiB array, so it slows down with the simulator when the host
   does), and the end-to-end host times are scaled by
   [reference_kernel_s] over the kernel's time.  The program under test
   never runs inside the kernel, so a change to the program moves the
   scaled times exactly as it moves the raw ones. *)
let reference_kernel_s = 0.030

let kernel () =
  let n = 1 lsl 16 in
  let h = Hashtbl.create n in
  let a = Array.make (1 lsl 20) 0 in
  let x = ref 12345 in
  for i = 0 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land (n - 1) in
    let l =
      match Hashtbl.find_opt h k with Some l when List.length l < 4 -> i :: l | _ -> [ i ]
    in
    Hashtbl.replace h k l;
    let j = (!x lsr 3) land ((1 lsl 20) - 1) in
    a.(j) <- a.(j) + i
  done;
  ignore (Sys.opaque_identity (h, a))

(* The kernel's median CPU time over three runs, on a compacted heap so
   the previous repetition's garbage does not bill the kernel. *)
let calibrate () =
  Gc.compact ();
  median (Array.init 3 (fun _ -> snd (time kernel)))
