(* Benchmark entry point:
     main.exe --workload corpus|sweep|serve --seed N --seconds S --trace 0|1
   Prints diagnostics on stderr and, as the last line of stdout, one JSON
   object {correct, attempted, failed, metrics}. Every end-to-end number is
   taken at one worker with tracing off; --trace 1 instead reports the
   per-layer numbers of a separate traced run. *)

let usage = "main.exe --workload corpus|sweep|serve --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "corpus | sweep | serve");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured time per run");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (* one worker everywhere: the pool, the batch engine and the daemon *)
  Unix.putenv "RWT_WORKERS" "1";
  Rwt_pool.default_workers := 1;
  let run, traced =
    match !workload with
    | "corpus" -> (W_corpus.run, W_corpus.traced)
    | "sweep" -> (W_sweep.run, W_sweep.traced)
    | "serve" -> (W_serve.run, W_serve.traced)
    | w -> prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage); exit 2
  in
  Util.rm_rf Util.work_root;
  let o = if !trace <> 0 then traced ~seed:!seed else run ~seed:!seed ~seconds:!seconds in
  let self_test = o.Util.self_test @ Checks.self_test o.Util.cases in
  List.iter (fun e -> Util.log "SIMULATOR FAULT: %s" e) (List.sort_uniq compare !Checks.simulator_faults);
  List.iter (fun e -> Util.log "CHECK FAILED: %s" e) o.Util.errors;
  List.iter (fun e -> Util.log "SELF-TEST FAILED: %s" e) self_test;
  let correct = o.Util.errors = [] && self_test = [] && o.Util.cases <> [] in
  Util.rm_rf Util.work_root;
  print_endline (Util.result_line ~correct ~attempted:o.Util.attempted ~failed:o.Util.failed o.Util.metrics)
