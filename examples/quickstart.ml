(** Quickstart: parse a mini-C module, compile it through the full
    CASCompCert pipeline (Fig. 11), show the assembly, run source and
    target, and check the footprint-preserving simulation between them.

    Run with: dune exec examples/quickstart.exe *)

open Cas_base
open Cas_langs
open Cas_conc

let source =
  {|
  int counter = 0;

  int step(int n) {
    counter = counter + n;
    return counter;
  }

  void main() {
    int i;
    int r;
    i = 1;
    while (i <= 5) {
      r = step(i);
      i = i + 1;
    }
    print(r);
  }
|}

let () =
  Fmt.pr "== 1. Parse the mini-C module ==@.%s@." source;
  let client = Parse.clight source in

  Fmt.pr "== 2. Compile through all passes ==@.";
  let arts = Cas_compiler.Driver.compile_artifacts client in
  Fmt.pr "pipeline: %a@.@."
    Fmt.(list ~sep:(any " -> ") string)
    Cas_compiler.Driver.pass_names;
  Fmt.pr "RTL after optimizations:@.%a@.@."
    Fmt.(list ~sep:cut Rtl.pp_func)
    arts.Cas_compiler.Driver.rtl_deadcode.Rtl.funcs;
  Fmt.pr "x86 assembly:@.%a@.@."
    Fmt.(list ~sep:cut Asm.pp_func)
    arts.Cas_compiler.Driver.asm.Asm.funcs;

  Fmt.pr "== 3. Run source and target as whole programs ==@.";
  let run name prog =
    match World.load prog ~args:[] with
    | Error e -> Fmt.pr "%s: load error %a@." name World.pp_load_error e
    | Ok w ->
      let tr, _ = Engine.traces w in
      Fmt.pr "%s traces: @[<v>%a@]@." name Explore.TraceSet.pp
        tr.Explore.traces
  in
  run "source" (Lang.prog [ Lang.Mod (Clight.lang, client) ] [ "main" ]);
  run "target"
    (Lang.prog [ Lang.Mod (Asm.lang, arts.Cas_compiler.Driver.asm) ] [ "main" ]);

  Fmt.pr "@.== 4. Check the footprint-preserving simulation (Def. 2/3) ==@.";
  List.iter
    (fun (entry, args) ->
      let o =
        Cascompcert.Simulation.check ~src:(Clight.lang, client)
          ~tgt:(Asm.lang, arts.Cas_compiler.Driver.asm) ~entry ~args ()
      in
      Fmt.pr "  %-6s: %a@." entry Cascompcert.Simulation.pp_outcome o)
    [ ("main", []); ("step", [ Value.Vint 4 ]) ]
