(** The host's speed over a run, sampled with a fixed reference kernel.

    On a shared host the same op can run twice as long from one minute to
    the next and stay that slow for half a minute: neighbours contend
    for the caches, the memory system and the cores' shared pipelines,
    while the benchmark's CPU time tracks its wall time throughout. No
    statistic over one run removes a slowdown that covers the whole run.
    So the runner samples a reference kernel every [interval] seconds of
    op time, and divides each op's time by the host's slowdown at the
    moment it ran: the median kernel time within [window] seconds of the
    op, over the kernel's [nominal] time. What is left is the op's time
    at nominal speed, in seconds like the measured one.

    The kernel is fixed work of four kinds, none of which allocates:
    lookups in a prebuilt 8,192-entry [Hashtbl] (hashing and pointer
    chasing, like the workloads' state stores), two sequential reads of a
    2 MiB buffer (the size of the minor heap, which stays in cache
    between reads only while neighbours leave it there), random
    read-modify-writes over 1 MiB, and a dependent chain of integer
    arithmetic. Its buffers are outside the OCaml heap and it triggers
    no collection, so a change to the program cannot change its time.
    On the 2-core shared VM the benchmark was defined on, over 130–300 s
    runs, the kernel's time explained 38–93% of the variance of the
    workloads' log slowdown (3 s windows), and dividing by it cut the
    standard deviation of their log slowdown from 0.09–0.16 to
    0.04–0.08. Kernels of one kind tracked only some slowdowns: memory
    streams missed those that hashing code felt, and the reverse.

    Workloads feel the same contention to different degrees: from run
    to run, a workload's measured time grew as a power of the kernel's
    slowdown, its [elasticity], between 1.08 (the compiler) and 1.34
    (the naive explorer). Dividing by the kernel's slowdown itself left
    that excess in the corrected times, so a set of runs on a busier
    stretch of the host read up to a sixth slower; the runner gives each
    workload its elasticity and [slowdown] raises the kernel's slowdown
    to it. Adding a dependent pointer chase over 8–128 MiB to the kernel
    explained none of what was left. *)

(** Words of the sequentially read buffer: 2 MiB. *)
let words = 1 lsl 18

(** Entries of the lookup table. *)
let entries = 8192

(** Kernel time (seconds) in the quietest stretches of those runs: the
    unit [slowdown] is measured in. *)
let nominal = 0.0024

(** Op time between two kernel samples (seconds): about 2.5% overhead. *)
let interval = 0.1

(** Half-width of the time window a slowdown is the median over. *)
let window = 1.0

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  elasticity : float;
  table : (int, int) Hashtbl.t;
  stream : buf;
  cells : buf;  (** 1 MiB *)
  mutable rng : int;
  mutable due : float;  (** op time left until the next sample *)
  mutable at : float array;  (** completion times of the samples *)
  mutable dur : float array;
  mutable n : int;
  medians : (int * int, float) Hashtbl.t;
}

let buf n =
  let b = Bigarray.(Array1.create int c_layout n) in
  Bigarray.Array1.fill b 1;
  b

let key i = i * 7919

(** A sampler for work of the given [elasticity]. *)
let create ~elasticity () =
  let table = Hashtbl.create entries in
  for i = 0 to entries - 1 do
    Hashtbl.replace table (key i) i
  done;
  {
    elasticity;
    table;
    stream = buf words;
    cells = buf (words / 2);
    rng = 1;
    due = 0.;
    at = Array.make 1024 0.;
    dur = Array.make 1024 0.;
    n = 0;
    medians = Hashtbl.create 256;
  }

let kernel t =
  let open Bigarray.Array1 in
  let s = ref 0 in
  for i = 0 to 29_999 do
    s := !s + Hashtbl.find t.table (key (i land (entries - 1)))
  done;
  let a = t.stream in
  for _ = 1 to 2 do
    for i = 0 to words - 1 do
      s := !s + unsafe_get a i
    done
  done;
  let cells = t.cells and mask = (words / 2) - 1 in
  let x = ref (t.rng + !s) in
  for _ = 1 to 50_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land mask in
    unsafe_set cells i (unsafe_get cells i + 1)
  done;
  for i = 1 to 120_000 do
    x := ((!x * 1103515245) + i) lxor (!x lsr 7)
  done;
  t.rng <- !x land 0x3fffffff

let grow a = Array.append a (Array.make (Array.length a) 0.)

(** Run the kernel once and record its time. *)
let sample t =
  let t0 = Unix.gettimeofday () in
  kernel t;
  let t1 = Unix.gettimeofday () in
  if t.n = Array.length t.at then begin
    t.at <- grow t.at;
    t.dur <- grow t.dur
  end;
  t.at.(t.n) <- t1;
  t.dur.(t.n) <- t1 -. t0;
  t.n <- t.n + 1

(** Account [busy] seconds of op time; sample when [interval] of it has
    passed since the last sample. Call it between ops, outside their
    timed region. *)
let tick t ~busy =
  t.due <- t.due -. busy;
  if t.due <= 0. then begin
    sample t;
    t.due <- interval
  end

(** Index of the first sample completed after [x] (or at it, unless
    [strict]); samples are in time order. *)
let search t ?(strict = false) x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.at.(mid) < x || (strict && t.at.(mid) = x) then go (mid + 1) hi
      else go lo mid
  in
  go 0 t.n

(** The samples completed in [lo, hi], as a range of indices. *)
let between t lo hi = (search t lo, search t ~strict:true hi)

(** The median of the samples [i0, i1) over [nominal], raised to the
    elasticity; ranges repeat from op to op, so results are kept. *)
let median_of t (i0, i1) =
  match Hashtbl.find_opt t.medians (i0, i1) with
  | Some m -> m
  | None ->
    let m =
      (Stats.median (Array.sub t.dur i0 (i1 - i0)) /. nominal) ** t.elasticity
    in
    Hashtbl.replace t.medians (i0, i1) m;
    m

(** How much slower than nominal the work ran around time [at]: the
    median sample within [window] of it, or of the nearest samples when
    none are that close, as a slowdown of the kernel raised to the
    elasticity. At least one sample must have been taken. *)
let slowdown t ~at =
  let rec widen w =
    let ((i0, i1) as r) = between t (at -. w) (at +. w) in
    if i1 - i0 >= min 3 t.n then r else widen (2. *. w)
  in
  median_of t (widen window)

(** The median slowdown over the samples in [lo, hi], or around its
    middle when it holds fewer than three. *)
let slowdown_over t lo hi =
  let ((i0, i1) as r) = between t lo hi in
  if i1 - i0 >= 3 then median_of t r else slowdown t ~at:((lo +. hi) /. 2.)

(** [secs] measured around time [at], at nominal speed. *)
let normalize t ~at secs = secs /. slowdown t ~at

(** The kernel's median slowdown over every sample of the run: the
    host's, whatever the elasticity. *)
let run_slowdown t = Stats.median (Array.sub t.dur 0 t.n) /. nominal
