(** The fixed programs of the benchmark, with hand-written answers.

    The sources are frozen copies of the shared corpus in
    [bench/bench_corpus.ml] and of the cascd bench template in
    [bench/main.ml]: a benchmark's inputs must not move when the
    harness corpus is edited, or a later run would measure different
    work under the same workload name. *)

(** A whole program: Clight modules (γ_lock linked when [with_lock])
    and its thread entries. *)
type program = {
  label : string;
  sources : string list;
  entries : string list;
  with_lock : bool;
}

let counter =
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

let racy_counter =
  {|
  int x = 0;
  void inc() {
    int tmp;
    tmp = x;
    x = tmp + 1;
    print(tmp);
  }
|}

let racy_writer =
  {|
  int x = 0;
  void writer() {
    x = 1;
    x = 2;
  }
|}

let racy_reader =
  {|
  int x = 0;
  void reader() {
    int r;
    r = x;
    print(r);
  }
|}

let producer_consumer =
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

let prints = {| void f() { print(1); print(2); } |}

(** The concurrent corpus and its DRF answers: four race-free programs
    and two racy ones. *)
let drf : (program * bool) list =
  let p label sources entries with_lock =
    { label; sources; entries; with_lock }
  in
  [
    (p "lock-counter" [ counter ] [ "inc"; "inc" ] true, true);
    (p "lock-counter-3" [ counter ] [ "inc"; "inc"; "inc" ] true, true);
    ( p "producer-consumer" [ producer_consumer ] [ "producer"; "consumer" ]
        true,
      true );
    (p "prints-3" [ prints ] [ "f"; "f"; "f" ] false, true);
    (p "racy-counter" [ racy_counter ] [ "inc"; "inc" ] false, false);
    ( p "racy-observer" [ racy_writer; racy_reader ] [ "writer"; "reader" ]
        false,
      false );
  ]

(** Sequential modules for the build workload, each with the entry its
    single-module link starts from ([None]: the module imports a symbol
    or its only function takes arguments, so it is built but not
    linked on its own). *)
let modules : (string * string * string option) list =
  [
    ("counter", counter, None);
    ( "fib",
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
|},
      Some "main" );
    ( "array_sum",
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
|},
      Some "main" );
    ( "mutual_tailcall",
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
|},
      Some "main" );
    ( "const_cse",
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
|},
      Some "main" );
    ( "spill",
      {|
  void main() {
    int a; int b; int c; int d; int e; int f; int h; int i;
    a = 1; b = 2; c = 3; d = 4; e = 5; f = 6; h = 7; i = 8;
    print(a + b + c + d + e + f + h + i);
    print(a * b - c * d + e * f - h * i);
  }
|},
      Some "main" );
    ("producer_consumer", producer_consumer, None);
    ( "cross_module_f",
      {|
  void f() {
    int a;
    int b;
    a = 0;
    b = 0;
    g(&b);
    print(a + b);
  }
|},
      None );
    ("cross_module_g", {|
  void g(int p) {
    *p = 3;
  }
|}, None);
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
|},
      Some "h" );
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
|},
      Some "k" );
  ]

(** The cascd template: one module per Zipf rank, a call chain across
    four functions. [edit] > 0 rewrites the body of [scale<rank>] only,
    the one-function edit the certificate cache recertifies. *)
let rank_source ?(edit = 0) rank =
  Printf.sprintf
    {|
      int x%d = %d;
      int scale%d(int n) { int t; t = n * %d; return t; }
      int twice%d(int n) {
        int s;
        int u;
        s = scale%d(n);
        u = scale%d(n);
        return s + u;
      }
      int probe%d(int n) { int u; u = twice%d(n); return u + x%d; }
      void m%d() {
        int a;
        int b;
        a = probe%d(%d);
        b = twice%d(a);
        x%d = b;
        print(a + b);
      }
|}
    rank rank rank (rank + 2 + edit) rank rank rank rank rank rank rank rank
    (rank + 1) rank rank
