(** Canonical state table: a sharded hash table keyed by world
    fingerprint, with hit/miss/truncation accounting, whose slot for
    each admitted world holds a value the engine memoizes for it — the
    DPOR engine keeps the world's node there (its transitions, each an
    edge to its target's node once resolved), so a world is keyed,
    looked up and stepped once, however many schedules reach it. Each
    admitted key also gets a dense id ([id]), assigned under the shard
    lock at admission, so domains that race on a key agree on it.

    Sharding serves the parallel frontier scheduler: each shard carries
    its own lock — and its own hit counter, folded on read — so domains
    insert concurrently with contention only on colliding shards. A
    sequential run uses one shard. The global capacity is enforced with
    an atomic counter read under only the *shard* lock, so the cap is
    approximate under parallel insertion — but boundedly so. Precise
    over-admission bound: with [D] domains racing, at most
    [capacity + D - 1] keys are ever admitted. Proof sketch: an
    admission requires observing [count < capacity] before its own
    increment; once some increment makes [count = capacity] the counter
    never decreases, so every admission after that point must have
    loaded [count] before that increment committed — and at most
    [D - 1] *other* domains can each hold one such stale in-flight load
    (one insertion per domain at a time, each load is consumed by its
    own increment).
    Hence over-admission < D, it only affects where truncation is
    reported, never soundness.

    The [full] flag is *set-only* ([Atomic.set t.full true] on every
    refusal, no reset path exists), so once any insertion is refused,
    [truncated] reports [true] forever — concurrent admitting domains
    cannot lose the flag, which [test/test_mc.ml] hammers with a Pool
    of racing inserters. *)

(** A key's cell in its shard's chained hash table. The cell itself is
    the slot handed to callers: [id] is the key's admission number (0
    for the first key admitted, then 1, 2, ...), and [value] is the
    memo, filled by whoever computes it first (a reader that finds it
    empty computes the value itself — under parallel exploration a
    racing duplicate of a deterministic computation is benign).
    Resizing relinks cells in place, so a slot stays valid for the
    table's lifetime, and a key costs one cell, whether or not its slot
    is ever filled. *)
type 'a cell =
  | Nil
  | Slot of {
      key : string;
      id : int;
      mutable value : 'a option;
      mutable next : 'a cell;
    }

type 'a slot = 'a cell  (** always a [Slot] *)

type 'a shard = {
  lock : Mutex.t;
  mutable buckets : 'a cell array;  (** power-of-two length *)
  mutable size : int;
  mutable shits : int;
      (** hits on this shard, bumped under [lock] — hits are the common
          case in DPOR revisits, and a single global atomic would be the
          one cacheline every stealing domain fights over *)
}

type 'a t = {
  shards : 'a shard array;
  capacity : int;
  count : int Atomic.t;  (** distinct keys inserted (misses) *)
  full : bool Atomic.t;  (** an insertion was refused *)
}

let create ?(shards = 1) ~capacity () =
  {
    shards =
      Array.init (max 1 shards) (fun _ ->
          {
            lock = Mutex.create ();
            buckets = Array.make 64 Nil;
            size = 0;
            shits = 0;
          });
    capacity;
    count = Atomic.make 0;
    full = Atomic.make false;
  }

(** One hash per key picks both its shard ([h mod shards]) and its
    bucket there ([bucket]). *)
let bucket t h (buckets : 'a cell array) =
  (h / Array.length t.shards) land (Array.length buckets - 1)

let rec find key = function
  | Nil -> Nil
  | Slot s as c -> if String.equal s.key key then c else find key s.next

(* Double the buckets of [sh], relinking every cell in place. *)
let grow t sh =
  let fresh = Array.make (2 * Array.length sh.buckets) Nil in
  let rec move = function
    | Nil -> ()
    | Slot s as c ->
      let next = s.next in
      let i = bucket t (String.hash s.key) fresh in
      s.next <- fresh.(i);
      fresh.(i) <- c;
      move next
  in
  Array.iter move sh.buckets;
  sh.buckets <- fresh

(** Insert a fingerprint. [`New s]: first time seen, [s] is its fresh
    empty slot, with the next id; [`Seen s]: already present (a hit),
    [s] is the slot [`New] returned; [`Full]: refused, the table reached
    capacity — a refused key gets no slot and no id. *)
let add t key : [ `New of 'a slot | `Seen of 'a slot | `Full ] =
  let h = String.hash key in
  let sh = t.shards.(h mod Array.length t.shards) in
  Mutex.lock sh.lock;
  let i = bucket t h sh.buckets in
  let r =
    match find key sh.buckets.(i) with
    | Slot _ as c ->
      sh.shits <- sh.shits + 1;
      `Seen c
    | Nil ->
      if Atomic.get t.count >= t.capacity then `Full
      else begin
        let id = Atomic.fetch_and_add t.count 1 in
        let c = Slot { key; id; value = None; next = sh.buckets.(i) } in
        sh.buckets.(i) <- c;
        sh.size <- sh.size + 1;
        if sh.size > 2 * Array.length sh.buckets then grow t sh;
        `New c
      end
  in
  Mutex.unlock sh.lock;
  (match r with `Full -> Atomic.set t.full true | `New _ | `Seen _ -> ());
  r

let get : 'a slot -> 'a option = function Slot s -> s.value | Nil -> None

(** The id [add] assigned the slot's key at admission: ids are distinct,
    and the [n] keys of a table are numbered [0] to [n - 1] (with [D]
    domains racing past capacity, up to [capacity + D - 2]). *)
let id : 'a slot -> int = function Slot s -> s.id | Nil -> -1

let fill (c : 'a slot) v =
  match c with Slot s -> s.value <- Some v | Nil -> ()

let mem t key =
  let h = String.hash key in
  let sh = t.shards.(h mod Array.length t.shards) in
  Mutex.lock sh.lock;
  let r =
    match find key sh.buckets.(bucket t h sh.buckets) with
    | Slot _ -> true
    | Nil -> false
  in
  Mutex.unlock sh.lock;
  r

let distinct t = Atomic.get t.count

(** Total hits, folded over the shards (each read under its lock, so
    the sum is exact once the exploration has joined). *)
let hits t =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let h = s.shits in
      Mutex.unlock s.lock;
      acc + h)
    0 t.shards

let truncated t = Atomic.get t.full
