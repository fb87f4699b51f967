(* Traced mode: a workload broken into per-layer numbers. The public
   functions of each layer are timed from outside, on the workload's own
   inputs, while Rwt_obs records the layers' counters. None of this runs in
   the timed mode: every end-to-end number is taken with recording off. *)

open Rwt_util
open Rwt_workflow
module D = Rwt_graph.Digraph

type case = { model : Comm_model.t; inst : Instance.t; file : string }

(* One pass of the workload's own operations. *)
type pass = { wall_s : float; ops : int; failed : int; alloc_mb : float }

type probe = {
  cases : case list;  (** the distinct instances the workload analyses *)
  jobs : Rwt_batch.job list;  (** a batch job list over [cases] *)
  chains : Instance.t array list;  (** STRICT perturbation chains *)
  requests : (string * bool) array;
      (** analyze request lines for a daemon, each flagged first-seen *)
  dir : string;  (** where the probe daemon's socket and log go *)
  pass : traced:bool -> pass;
      (** [traced]: with metrics and trace recording on *)
}

(* ---- building probes from a workload's inputs ---- *)

let write_cases dir pairs =
  List.mapi
    (fun i (model, inst) ->
      let file = Filename.concat dir (Printf.sprintf "case-%03d.rwt" i) in
      Util.write_file file (Format_io.to_string inst);
      { model; inst; file })
    pairs

let file_jobs cases =
  List.mapi
    (fun k c ->
      Rwt_batch.job ~id:(string_of_int k) ~model:c.model ~method_:Rwt_core.Analysis.Auto ~index:k
        (Rwt_batch.File c.file))
    cases

let analyze_line ~id file model =
  Printf.sprintf {|{"file":"%s","model":"%s","id":"%d"}|} file (Comm_model.to_string model) id

(* Each case once first-seen, then once again. *)
let cold_hot_requests cases =
  Array.of_list
    (List.concat
       (List.mapi
          (fun i c ->
            [ (analyze_line ~id:(2 * i) c.file c.model, true);
              (analyze_line ~id:((2 * i) + 1) c.file c.model, false) ])
          cases))

(* A STRICT chain of six single-parameter steps from [inst]: step [i]
   scales one stage's work, in turn. *)
let work_chain inst =
  let pl = inst.Instance.pipeline in
  let n = Pipeline.n_stages pl in
  let work = Array.init n (Pipeline.work pl) and data = Array.init (n - 1) (Pipeline.data pl) in
  let factors = [| Rat.of_ints 5 4; Rat.of_ints 3 4 |] in
  Array.init 7 (fun i ->
      if i = 0 then inst
      else begin
        let j = (i - 1) mod n in
        work.(j) <- Rat.mul work.(j) factors.(i mod 2);
        { inst with Instance.pipeline = Pipeline.create ~work:(Array.copy work) ~data }
      end)

(* One in-process pass, its wall time and the bytes it allocated (the
   workloads run on the calling domain at one worker). *)
let in_process ~traced f =
  Rwt_obs.reset ();
  if traced then Rwt_obs.enable ~trace:true ();
  let a0 = Gc.allocated_bytes () in
  let (ops, failed), wall_s = Util.time f in
  let alloc_mb = (Gc.allocated_bytes () -. a0) /. 1e6 in
  if traced then Rwt_obs.disable ();
  Rwt_obs.reset ();
  { wall_s; ops; failed; alloc_mb }

(* ---- measuring ---- *)

let reps = 3

(* median over [reps] calls per input, in microseconds *)
let median_us f xs =
  1e6 *. Util.median (List.concat_map (fun x -> List.init reps (fun _ -> snd (Util.time (fun () -> f x)))) xs)

(* summed over one call per input, in milliseconds *)
let sum_ms f xs = 1e3 *. List.fold_left (fun a x -> a +. snd (Util.time (fun () -> ignore (f x)))) 0.0 xs

let counter = Rwt_obs.counter_value
let hist_sum name = match Rwt_obs.histogram_summary name with Some h -> h.Rwt_obs.sum | None -> 0.0

(* [f]'s value and how much each named counter grew while it ran *)
let counting names f =
  let before = List.map counter names in
  let v = f () in
  (v, List.map2 (fun n b -> counter n - b) names before)

let share a total = if total = 0 then nan else float_of_int a /. float_of_int total

let m = Util.metric

let cold_layers cases =
  Rwt_core.Poly_overlap.reset_memo ();
  let analyze_ms = sum_ms (fun c -> Rwt_core.Analysis.analyze c.model c.inst) cases in
  let strict = List.filter (fun c -> c.model = Comm_model.Strict) cases in
  let build_ms = ref 0.0 in
  let solve_ms, mcr =
    counting [ "mcr.screen_hits"; "mcr.screen_misses"; "mcr.howard_fallbacks"; "mcr.iterations" ]
      (fun () ->
        let total =
          sum_ms
            (fun c ->
              let fg, dt = Util.time (fun () -> Rwt_core.Tpn_graph.build_exn Comm_model.Strict c.inst) in
              build_ms := !build_ms +. (1e3 *. dt);
              Rwt_petri.Mcr.solve_exact fg.Rwt_core.Tpn_graph.graph)
            strict
        in
        total -. !build_ms)
  in
  let hits, misses, fallbacks, iters =
    match mcr with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
  in
  let insts = List.map (fun c -> c.inst) cases in
  Rwt_core.Poly_overlap.reset_memo ();
  let (), poly = counting [ "poly.memo_hits"; "poly.memo_misses" ] (fun () ->
      List.iter (fun i -> ignore (Rwt_core.Poly_overlap.period i)) insts)
  in
  let poly_hits, poly_misses = match poly with [ a; b ] -> (a, b) | _ -> assert false in
  let poly_us = median_us (fun i -> Rwt_core.Poly_overlap.reset_memo (); Rwt_core.Poly_overlap.period i) insts in
  Rwt_core.Poly_overlap.reset_memo ();
  let texts = List.map (fun c -> Format_io.to_string c.inst) cases in
  ( analyze_ms,
    [ m "format_io.parse_us" "us" (median_us (fun s -> Format_io.of_string s) texts);
      m "cycle_time.mct_us" "us" (median_us (fun c -> Cycle_time.mct c.model c.inst) cases);
      m "poly_overlap.period_us" "us" poly_us;
      m "poly_overlap.memo_hit_ratio" "ratio" (share poly_hits (poly_hits + poly_misses));
      m "tpn_graph.build_ms" "ms" !build_ms;
      m "mcr.solve_ms" "ms" solve_ms;
      m "mcr.screen_hit_ratio" "ratio" (share hits (hits + misses));
      m "mcr.howard_fallbacks" "count" (float_of_int fallbacks);
      m "mcr.iterations" "count" (float_of_int iters);
      m "analysis.analyze_ms" "ms" analyze_ms ] )

(* Delta sessions over the chains, then the same chains replayed through
   Tpn_graph.patch_exn and Mcr.session_resolve directly. *)
let chain_layers chains =
  let cold = ref 0.0 and hits = ref 0 and warm_steps = ref 0 and saved = ref 0 in
  List.iter
    (fun chain ->
      let s = Rwt_core.Delta.create Comm_model.Strict in
      Array.iteri
        (fun i inst ->
          let before = (Rwt_core.Delta.stats s).Rwt_core.Delta.patch_hits in
          let _, dt = Util.time (fun () -> Rwt_core.Delta.period_exn s inst) in
          if (Rwt_core.Delta.stats s).Rwt_core.Delta.patch_hits = before then cold := !cold +. dt;
          if i > 0 then incr warm_steps)
        chain;
      let st = Rwt_core.Delta.stats s in
      hits := !hits + st.Rwt_core.Delta.patch_hits;
      saved := !saved + st.Rwt_core.Delta.rounds_saved)
    chains;
  let patch = ref 0.0 and resolve = ref 0.0 and nodes = ref 0 and edges = ref 0 and comps = ref 0 in
  let (), clean =
    counting [ "mcr.resolve_clean_comps" ] (fun () ->
        List.iter
          (fun chain ->
            let fg = Rwt_core.Tpn_graph.build_exn Comm_model.Strict chain.(0) in
            let g = fg.Rwt_core.Tpn_graph.graph in
            let session, _ = Rwt_petri.Mcr.session_init g in
            let scc = Rwt_graph.Scc.tarjan g in
            let cyclic = ref 0 in
            Array.iteri (fun c _ -> if not (Rwt_graph.Scc.is_trivial g scc c) then incr cyclic) (Rwt_graph.Scc.members scc);
            nodes := !nodes + D.num_nodes g;
            edges := !edges + D.num_edges g;
            for i = 1 to Array.length chain - 1 do
              let (), dp = Util.time (fun () -> Rwt_core.Tpn_graph.patch_exn fg chain.(i)) in
              let _, dr = Util.time (fun () -> Rwt_petri.Mcr.session_resolve session) in
              patch := !patch +. dp;
              resolve := !resolve +. dr;
              comps := !comps + !cyclic
            done)
          chains)
  in
  [ m "delta.patch_hit_ratio" "ratio" (share !hits !warm_steps);
    m "delta.rounds_saved" "count" (float_of_int !saved);
    m "delta.cold_ms" "ms" (1e3 *. !cold);
    m "tpn_graph.patch_ms" "ms" (1e3 *. !patch);
    m "tpn_graph.nodes" "count" (float_of_int !nodes);
    m "tpn_graph.edges" "count" (float_of_int !edges);
    m "mcr.resolve_ms" "ms" (1e3 *. !resolve);
    m "mcr.resolve_clean_ratio" "ratio" (share (List.hd clean) !comps) ]

(* Rwt_batch at one worker against the summed analysis time, then at two
   workers for the pool's numbers. *)
let batch_layers jobs ~analyze_ms =
  let run k =
    Rwt_core.Poly_overlap.reset_memo ();
    Util.time (fun () -> fst (Rwt_batch.run ~jobs:k jobs))
  in
  let outs, run_s = run 1 in
  let b0 = hist_sum "pool.worker_busy_s" and i0 = hist_sum "pool.worker_idle_s" in
  let (_, w2_s), steals = counting [ "pool.steals" ] (fun () -> run 2) in
  let dedup = Array.fold_left (fun a o -> if o.Rwt_batch.cache_hit then a + 1 else a) 0 outs in
  [ m "batch.run_s" "s" run_s;
    m "batch.dedup_hits" "count" (float_of_int dedup);
    m "batch.overhead_s" "s" (run_s -. (analyze_ms /. 1e3));
    m "pool.w2_speedup" "ratio" (run_s /. w2_s);
    m "pool.busy_s" "s" (hist_sum "pool.worker_busy_s" -. b0);
    m "pool.idle_s" "s" (hist_sum "pool.worker_idle_s" -. i0);
    m "pool.steals" "count" (float_of_int (List.hd steals)) ]

(* A fresh daemon: the echo floor, then the request sequence. Returns the
   metrics and the number of responses that were not ok. *)
let serve_layers dir requests =
  let d = Daemon.start dir in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  let rtt line = Util.time (fun () -> Daemon.request d.Daemon.conn line) in
  let echo = List.init 200 (fun _ -> snd (rtt {|{"req":"echo"}|})) in
  let cold = ref [] and hot = ref [] and bad = ref 0 in
  Array.iter
    (fun (line, first) ->
      let resp, dt = rtt line in
      if fst (Util.response_status resp) <> "ok" then incr bad;
      if first then cold := dt :: !cold else hot := dt :: !hot)
    requests;
  let hits = Option.value ~default:0 (List.assoc_opt "serve.cache_hits" (Daemon.counters d)) in
  ( [ m "serve.echo_rtt_us" "us" (1e6 *. Util.median echo);
      m "serve.cold_rtt_us" "us" (1e6 *. Util.median !cold);
      m "serve.hot_rtt_us" "us" (1e6 *. Util.median !hot);
      m "serve.memo_hit_ratio" "ratio" (share hits (Array.length requests)) ],
    !bad )

(* Passes alternate untraced and traced, twice each; the overhead compares
   their medians. Returns the per-layer metrics, operations attempted and
   failed (passes and probe requests), and probe errors. *)
let run p =
  let passes = List.map (fun traced -> (traced, p.pass ~traced)) [ false; true; false; true ] in
  let wall tr = Util.median (List.filter_map (fun (t, x) -> if t = tr then Some x.wall_s else None) passes) in
  let plain = List.assoc false passes in
  Rwt_obs.reset ();
  Rwt_obs.enable ();
  let analyze_ms, cold = cold_layers p.cases in
  let chained = chain_layers p.chains in
  let batch = batch_layers p.jobs ~analyze_ms in
  Rwt_obs.disable ();
  Rwt_obs.reset ();
  let serve, bad = serve_layers p.dir p.requests in
  let metrics =
    cold @ chained @ batch @ serve
    @ [ m "gc.alloc_mb_per_op" "MB" (plain.alloc_mb /. float_of_int plain.ops);
        m "obs.overhead_pct" "%" (100. *. ((wall true /. wall false) -. 1.)) ]
  in
  ( metrics,
    List.fold_left (fun a (_, x) -> a + x.ops) 0 passes + Array.length p.requests,
    List.fold_left (fun a (_, x) -> a + x.failed) 0 passes + bad )
