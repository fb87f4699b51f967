(* corpus: the standard generated corpus as instance files, run as one
   Rwt_batch job list at one worker. A fixed share of the jobs are renamed
   copies, so canonical dedup has work to do. *)

open Rwt_util
open Rwt_workflow
module C = Rwt_experiments.Corpus

let copy_pct = 20

type input = { model : Comm_model.t; inst : Instance.t; file : string; source : int }

type t = { inputs : input array; jobs : Rwt_batch.job list }

(* The instances are the standard corpus (Corpus.build's default seed, the
   one pinned by the committed snapshots); the seed picks which entries are
   copied, the job order and every instance name. Other corpus seeds hold
   instances whose cold solve alone takes a minute (see README.md). *)
let setup ~seed () =
  let dir = Util.work_dir "corpus" in
  let entries = C.build C.Standard in
  let n = Array.length entries in
  let r = Prng.create seed in
  let src = Array.init (n + (n * copy_pct / 100)) (fun i -> if i < n then i else Prng.int r n) in
  Prng.shuffle r src;
  let inputs =
    Array.mapi
      (fun k i ->
        let e = entries.(i) in
        let inst = { e.C.instance with Instance.name = Printf.sprintf "job-%d-%d" seed k } in
        let file = Filename.concat dir (Printf.sprintf "%04d.rwt" k) in
        Util.write_file file (Format_io.to_string inst);
        { model = e.C.model; inst; file; source = i })
      src
  in
  let jobs =
    Array.to_list
      (Array.mapi
         (fun k x ->
           Rwt_batch.job ~id:(string_of_int k) ~model:x.model
             ~method_:Rwt_core.Analysis.Auto ~index:k (Rwt_batch.File x.file))
         inputs)
  in
  { inputs; jobs }

(* One pass: the batch user's time to a full answer set. The polynomial
   route's process-wide component memo is emptied first, so no pass
   inherits another's answers. *)
let round t =
  Rwt_core.Poly_overlap.reset_memo ();
  fst (Rwt_batch.run ~jobs:1 t.jobs)

let failures outcomes =
  Array.fold_left (fun acc o -> if o.Rwt_batch.status = Rwt_batch.Done then acc else acc + 1) 0 outcomes

(* Round 1 is checked independently: each source instance once, copies
   against their source. Returns the copy mismatches and the (model,
   instance, period) triples for {!Checks.start}. *)
let scan t first =
  let by_source = Hashtbl.create 256 in
  let errors = ref [] and items = ref [] in
  Array.iteri
    (fun k o ->
      let x = t.inputs.(k) in
      match o.Rwt_batch.period with
      | None -> ()
      | Some p -> (
        match Hashtbl.find_opt by_source x.source with
        | Some q ->
          if not (Rat.equal p q) then errors := Printf.sprintf "job %d: copy differs from its source" k :: !errors
        | None ->
          Hashtbl.add by_source x.source p;
          items := (x.model, x.inst, p) :: !items))
    first;
  (List.rev !errors, List.rev !items)

(* The copy check must reject round 1 with every copy's period nudged. *)
let self_test t first =
  let seen = Hashtbl.create 256 and tampered = Array.copy first in
  Array.iteri
    (fun k o ->
      let src = t.inputs.(k).source in
      if Hashtbl.mem seen src then
        tampered.(k) <- { o with Rwt_batch.period = Option.map (fun p -> Checks.nudge p 1) o.Rwt_batch.period }
      else Hashtbl.add seen src ())
    first;
  if fst (scan t tampered) = [] then [ "copy check accepted a wrong answer" ] else []

(* Later rounds must repeat round 1 exactly. *)
let check t rounds checks =
  let first = List.hd rounds in
  let errors, _ = scan t first in
  let repeats =
    List.concat
      (List.mapi
         (fun i outcomes ->
           if Array.for_all2 (fun a b -> Option.equal Rat.equal a.Rwt_batch.period b.Rwt_batch.period) first outcomes
           then []
           else [ Printf.sprintf "round %d differs from round 1" (i + 1) ])
         rounds)
  in
  let period_errors, cases = Checks.finish checks in
  (period_errors @ errors @ repeats, cases)

let run ~seed ~seconds =
  (* peak memory before any check work, which runs between rounds *)
  let mem = ref nan and checks = ref None in
  let between t first =
    if Float.is_nan !mem then mem := Util.self_peak_rss_mb ();
    Checks.advance_in checks (fun () -> snd (scan t first))
  in
  let t, rounds, setup_s =
    Util.timed_rounds ~seconds ~setup:(setup ~seed) ~between (fun t ->
        let v, dt, _ = Util.host_scaled (fun () -> round t) in
        (v, dt))
  in
  let outs = List.map fst rounds in
  let njobs = List.length t.jobs in
  (* A batch user waits for the whole answer set, so a pass is the
     operation whose latency counts. A run has far fewer than 40 passes,
     too few for a tail, so tail_ms repeats the median. *)
  let pass_ms = 1e3 *. Util.median (List.map snd rounds) in
  let errors, cases = check t outs (Option.get !checks) in
  Util.log "corpus: %d jobs x %d rounds" njobs (List.length rounds);
  { Util.attempted = List.length rounds * njobs;
    failed = List.fold_left (fun a o -> a + failures o) 0 outs;
    errors; cases;
    self_test = self_test t (List.hd outs);
    metrics = [ Util.metric "ops_per_s" "1/s" (Util.median (List.map (fun (_, dt) -> float_of_int njobs /. dt) rounds));
      Util.metric "p50_ms" "ms" pass_ms;
      Util.metric "tail_ms" "ms" pass_ms;
      Util.metric "mem_peak_mb" "MB" !mem;
      Util.metric "setup_s" "s" setup_s ] }

(* Traced mode: one checked pass, then the layer probes over the distinct
   instances, the job list itself, and work chains grown from the first
   STRICT instances. *)
let traced ~seed =
  let t = setup ~seed () in
  let first = round t in
  let errors, cases = check t [ first ] (Checks.start (snd (scan t first))) in
  let distinct =
    List.rev
      (snd
         (Array.fold_left
            (fun (seen, acc) x ->
              if List.mem x.source seen then (seen, acc)
              else (x.source :: seen, { Layers.model = x.model; inst = x.inst; file = x.file } :: acc))
            ([], []) t.inputs))
  in
  let strict = List.filter (fun c -> c.Layers.model = Comm_model.Strict) distinct in
  let probe =
    { Layers.cases = distinct;
      jobs = t.jobs;
      chains = List.map (fun c -> Layers.work_chain c.Layers.inst) (List.filteri (fun i _ -> i < 4) strict);
      requests = Layers.cold_hot_requests distinct;
      dir = Util.work_dir "corpus-trace";
      pass = (fun ~traced -> Layers.in_process ~traced (fun () -> let o = round t in (Array.length o, failures o))) }
  in
  let metrics, attempted, failed = Layers.run probe in
  { Util.attempted = attempted + Array.length first; failed = failed + failures first; errors; cases;
    self_test = self_test t first; metrics }
