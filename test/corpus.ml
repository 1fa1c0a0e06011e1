(** Shared corpus of source programs used across the test suites and the
    figures example. Client modules are written in the mini-C surface
    syntax and parsed; object modules in CImp. *)

open Cas_langs

let parse_c = Parse.clight
let parse_cimp = Parse.cimp

(* ------------------------------------------------------------------ *)
(* Client modules                                                      *)
(* ------------------------------------------------------------------ *)

(** Fig. 10(c): lock-protected counter with an observable print. *)
let counter_src =
  {|
  int x = 0;
  void inc() {
    int tmp;
    lock();
    tmp = x;
    x = x + 1;
    unlock();
    print(tmp);
  }
|}

let counter () = parse_c counter_src

(** Example (2.1) of the paper: f calls the external g with the address of
    a stack variable. *)
let cross_module_f_src =
  {|
  void f() {
    int a;
    int b;
    a = 0;
    b = 0;
    g(&b);
    print(a + b);
  }
|}

let cross_module_g_src =
  {|
  void g(int p) {
    *p = 3;
  }
|}

let cross_module_f () = parse_c cross_module_f_src
let cross_module_g () = parse_c cross_module_g_src

(** Unsynchronized racy counter — the negative example for DRF. *)
let racy_counter_src =
  {|
  int x = 0;
  void inc() {
    int tmp;
    tmp = x;
    x = tmp + 1;
    print(tmp);
  }
|}

let racy_counter () = parse_c racy_counter_src

(** Racy two-stores vs. reader: preemptive and non-preemptive semantics
    produce different trace sets (the reader can observe the intermediate
    value 1 only under preemption) — the counterexample showing Lem. 9
    really needs DRF. *)
let racy_observer_writer_src =
  {|
  int x = 0;
  void writer() {
    x = 1;
    x = 2;
  }
|}

let racy_observer_reader_src =
  {|
  int x = 0;
  void reader() {
    int r;
    r = x;
    print(r);
  }
|}

let racy_writer () = parse_c racy_observer_writer_src
let racy_reader () = parse_c racy_observer_reader_src

(** Recursion through the interaction semantics: naive Fibonacci. *)
let fib_src =
  {|
  int fib(int n) {
    int a;
    int b;
    if (n < 2) { return n; }
    a = fib(n - 1);
    b = fib(n - 2);
    return a + b;
  }
  void main() {
    int r;
    r = fib(7);
    print(r);
  }
|}

let fib () = parse_c fib_src

(** Loops, arrays and pointer arithmetic: sum of an array. *)
let array_sum_src =
  {|
  int total = 0;
  void main() {
    int a[5];
    int i;
    int s;
    i = 0;
    while (i < 5) {
      a[i] = i * i;
      i = i + 1;
    }
    s = 0;
    i = 0;
    while (i < 5) {
      s = s + a[i];
      i = i + 1;
    }
    total = s;
    print(s);
  }
|}

let array_sum () = parse_c array_sum_src

(** Tail call: the Tailcall pass applies to [even]/[odd]. *)
let mutual_tailcall_src =
  {|
  int even(int n) {
    if (n == 0) { return 1; }
    return odd(n - 1);
  }
  int odd(int n) {
    if (n == 0) { return 0; }
    return even(n - 1);
  }
  void main() {
    int r;
    r = even(10);
    print(r);
  }
|}

let mutual_tailcall () = parse_c mutual_tailcall_src

(** Constant folding and CSE fodder. *)
let const_cse_src =
  {|
  int g = 0;
  void main() {
    int a;
    int b;
    int c;
    a = 3 * 4 + 2;
    b = a * 2 + a * 2;
    c = (a * 2) - (a * 2);
    g = b + c;
    print(g);
  }
|}

let const_cse () = parse_c const_cse_src

(** Register pressure: more simultaneously-live values than allocatable
    registers, forcing spills. *)
let spill_src =
  {|
  void main() {
    int a; int b; int c; int d; int e; int f; int h; int i;
    a = 1; b = 2; c = 3; d = 4; e = 5; f = 6; h = 7; i = 8;
    print(a + b + c + d + e + f + h + i);
    print(a * b - c * d + e * f - h * i);
  }
|}

let spill () = parse_c spill_src

(** Producer/consumer over a lock-protected one-slot mailbox. *)
let producer_consumer_src =
  {|
  int box = 0;
  int full = 0;
  void producer() {
    int done_;
    int i;
    i = 1;
    while (i <= 2) {
      done_ = 0;
      while (done_ == 0) {
        lock();
        if (full == 0) {
          box = i * 10;
          full = 1;
          done_ = 1;
        }
        unlock();
      }
      i = i + 1;
    }
  }
  void consumer() {
    int got;
    int i;
    i = 1;
    while (i <= 2) {
      got = 0 - 1;
      while (got < 0) {
        lock();
        if (full == 1) {
          got = box;
          full = 0;
        }
        unlock();
      }
      print(got);
      i = i + 1;
    }
  }
|}

let producer_consumer () = parse_c producer_consumer_src

(* ------------------------------------------------------------------ *)
(* Object modules                                                      *)
(* ------------------------------------------------------------------ *)

(** γ_lock, Fig. 10(a), in concrete CImp syntax. *)
let gamma_lock_src =
  {|
  object int L = 1;
  void lock() {
    r := 0;
    while (r == 0) { atomic { r := [L]; [L] := 0; } }
  }
  void unlock() {
    atomic { r := [L]; assert(r == 0); [L] := 1; }
  }
|}

let gamma_lock () = parse_cimp gamma_lock_src

(** An atomic counter object: a concurrent object that is not a lock,
    exercising the "more general cases" of §2.4 (γ_o as an atomic abstract
    object). *)
let gamma_counter_src =
  {|
  object int CNT = 0;
  int fetch_add() {
    atomic { r := [CNT]; [CNT] := r + 1; }
    return r;
  }
|}

let gamma_counter () = parse_cimp gamma_counter_src

(* ------------------------------------------------------------------ *)
(* Assembled whole programs                                            *)
(* ------------------------------------------------------------------ *)

let lock_counter_prog () : Cas_base.Lang.prog =
  Cas_base.Lang.prog
    [
      Cas_base.Lang.Mod (Clight.lang, counter ());
      Cas_base.Lang.Mod (Cimp.lang, gamma_lock ());
    ]
    [ "inc"; "inc" ]

let racy_prog () : Cas_base.Lang.prog =
  Cas_base.Lang.prog
    [ Cas_base.Lang.Mod (Clight.lang, racy_counter ()) ]
    [ "inc"; "inc" ]

let observer_prog () : Cas_base.Lang.prog =
  Cas_base.Lang.prog
    [
      Cas_base.Lang.Mod (Clight.lang, racy_writer ());
      Cas_base.Lang.Mod (Clight.lang, racy_reader ());
    ]
    [ "writer"; "reader" ]

(** A small multi-module program with disjoint symbol tables, for the
    recertification tests: [f] calls across into [g] (the paper's §2.1
    pair), and two self-contained modules make one edited function a
    small share of the whole. *)
let link_module_srcs : (string * string) list =
  [
    ("f", cross_module_f_src);
    ("g", cross_module_g_src);
    ( "tri",
      {|
      int tri(int n) {
        int s;
        int i;
        s = 0;
        i = 0;
        while (i < n) { i = i + 1; s = s + i; }
        return s;
      }
      void h() {
        int r;
        r = tri(6);
        print(r);
      }
|}
    );
    ( "powers",
      {|
      int sq(int n) { return n * n; }
      int cube(int n) {
        int s;
        s = sq(n);
        return n * s;
      }
      void k() {
        int a;
        int b;
        a = cube(3);
        b = sq(3);
        print(a - b);
      }
|}
    );
  ]

(** Every single-threaded client with its entry, for pass-simulation and
    pipeline sweeps. *)
let sequential_clients () : (string * Clight.program * string list) list =
  [
    ("counter", counter (), [ "inc" ]);
    ("fib", fib (), [ "main" ]);
    ("array_sum", array_sum (), [ "main" ]);
    ("mutual_tailcall", mutual_tailcall (), [ "main" ]);
    ("const_cse", const_cse (), [ "main" ]);
    ("spill", spill (), [ "main" ]);
    ("producer_consumer", producer_consumer (), [ "producer"; "consumer" ]);
    ("cross_module_f", cross_module_f (), [ "f" ]);
    ("cross_module_g", cross_module_g (), [ "g" ]);
  ]

(** Concurrent DRF programs for framework sweeps (name, input). *)
let framework_inputs () : Cascompcert.Framework.input list =
  [
    {
      Cascompcert.Framework.name = "lock-counter";
      clients = [ counter () ];
      objects = [ gamma_lock () ];
      entries = [ "inc"; "inc" ];
    };
    {
      Cascompcert.Framework.name = "producer-consumer";
      clients = [ producer_consumer () ];
      objects = [ gamma_lock () ];
      entries = [ "producer"; "consumer" ];
    };
    {
      Cascompcert.Framework.name = "cross-module";
      clients = [ cross_module_f (); cross_module_g () ];
      objects = [];
      entries = [ "f" ];
    };
    {
      Cascompcert.Framework.name = "fib";
      clients = [ fib () ];
      objects = [];
      entries = [ "main" ];
    };
  ]
