(* serve: [rwt serve --workers 1] as its own process under a closed loop —
   one connection, one request in flight, the way [rwt send] callers wait
   for each reply. Analyze requests over instance files of both models from
   the cheap corpus families; one request in [miss_every] is first-seen
   (memo miss), the rest repeat one of the [recent] last targets (memo
   hit). *)

open Rwt_util
open Rwt_workflow
module C = Rwt_experiments.Corpus

let miss_every = 5
let recent = 8
let families = [ C.Scc_heavy; C.Wide_replication; C.Mixed ]

type t = { dir : string; targets : Layers.case array; reqs : (int * string) array }
(* [reqs]: (target index, request line) *)

(* The targets are the cheap families of the standard corpus, the same
   instances under the same model for every seed: a target's model
   alternates with its position in the corpus. The seed picks the order in
   which they are first requested and which recent one each repeat names. *)
let setup ~seed () =
  let dir = Util.work_dir "serve" in
  let entries =
    Array.of_list
      (List.mapi
         (fun k e -> ((if k mod 2 = 0 then Comm_model.Overlap else Comm_model.Strict), e.C.instance))
         (List.filter (fun e -> List.mem e.C.family families) (Array.to_list (C.build C.Standard))))
  in
  let r = Prng.create seed in
  Prng.shuffle r entries;
  let targets =
    Array.mapi
      (fun j (model, inst) ->
        let file = Filename.concat dir (Printf.sprintf "%03d.rwt" j) in
        Util.write_file file (Format_io.to_string inst);
        { Layers.model; inst; file })
      entries
  in
  let reqs =
    Array.init (miss_every * Array.length targets) (fun i ->
        let seen = i / miss_every in
        let j = if i mod miss_every = 0 then seen else seen - Prng.int r (min recent (seen + 1)) in
        (j, Layers.analyze_line ~id:i targets.(j).file targets.(j).model))
  in
  { dir; targets; reqs }

(* A long-lived daemon is warm; a fresh one pays for its first requests
   (code paging in, heap growth). These requests warm its analysis path
   without touching any target's memo entry. *)
let warmup =
  List.concat
    (List.init 10 (fun _ ->
         [ {|{"example":"a","model":"overlap"}|}; {|{"example":"a","model":"strict"}|} ]))

(* One pass on a fresh daemon, so neither its memo nor the polynomial
   route's component memo turns a first-seen request into a hit. Returns
   the responses, their latencies, the daemon's peak memory, how long the
   daemon took to start and the stopped daemon, with the pass's duration. *)
let round ?(extra = []) ?gc_stats t =
  let d, start_s = Util.time (fun () -> Daemon.start ~extra ?gc_stats t.dir) in
  List.iter (fun line -> ignore (Daemon.request d.Daemon.conn line)) warmup;
  let n = Array.length t.reqs in
  let resp = Array.make n "" and lat = Array.make n 0.0 in
  let t0 = Util.now () in
  Array.iteri
    (fun i (_, line) ->
      let t1 = Util.now () in
      resp.(i) <- Daemon.request d.Daemon.conn line;
      lat.(i) <- Util.now () -. t1)
    t.reqs;
  let dt = Util.now () -. t0 in
  let mem = Daemon.peak_mb d in
  Daemon.stop d;
  ((resp, lat, mem, start_s, d), dt)

(* (status, period) of every response *)
let parse resp = Array.map Util.response_status resp

let ok_count parsed = Array.fold_left (fun a (s, _) -> if s = "ok" then a + 1 else a) 0 parsed

(* Every response must be ok. Each target's first period is checked
   independently, and every later response for that target must carry
   exactly that period. Returns the status and repeat errors and the
   (model, instance, period) triples for {!Checks.start}. *)
let scan t parsed =
  let errors = ref [] and items = ref [] and firsts = Hashtbl.create 256 in
  Array.iteri
    (fun i r ->
      let j, _ = t.reqs.(i) in
      let x = t.targets.(j) in
      match r with
      | "ok", Some p -> (
        match Hashtbl.find_opt firsts j with
        | Some q ->
          if not (Rat.equal p q) then
            errors := Printf.sprintf "request %d: period %s, but %s was first answered %s" i
                (Rat.to_string p) x.Layers.file (Rat.to_string q) :: !errors
        | None ->
          Hashtbl.add firsts j p;
          items := (x.model, x.inst, p) :: !items)
      | s, _ -> errors := Printf.sprintf "request %d: status %s" i s :: !errors)
    parsed;
  (List.rev !errors, List.rev !items)

(* The repeat check must reject round 1 with the period of request 1, a
   repeat of request 0's target, nudged. *)
let self_test t parsed =
  let tampered = Array.copy parsed in
  tampered.(1) <- (fst parsed.(1), Option.map (fun p -> Checks.nudge p 1) (snd parsed.(1)));
  if fst (scan t tampered) = [] then [ "serve repeat check accepted a wrong answer" ] else []

let check t rounds checks =
  let first = List.hd rounds in
  let errors, _ = scan t (parse first) in
  let repeats =
    List.concat
      (List.mapi
         (fun k resp -> if resp = first then [] else [ Printf.sprintf "round %d differs from round 1" (k + 1) ])
         rounds)
  in
  let period_errors, cases = Checks.finish checks in
  (period_errors @ errors @ repeats, cases)

(* Set-up is generating and writing the inputs, timed by
   {!Util.timed_rounds}, plus starting a daemon, timed in every round. *)
let run ~seed ~seconds =
  let checks = ref None in
  let between t (first, _, _, _) = Checks.advance_in checks (fun () -> snd (scan t (parse first))) in
  let t, rounds, inputs_s =
    Util.timed_rounds ~seconds ~setup:(setup ~seed) ~between (fun t ->
        let (resp, lat, mem, start_s, _), dt = round t in
        ((resp, lat, mem, start_s), dt))
  in
  let outs = List.map fst rounds in
  let n = Array.length t.reqs in
  let ok = List.map (fun (r, _, _, _) -> ok_count (parse r)) outs in
  let p50, tail, q, nops = Util.latency_ms (List.map (fun (_, l, _, _) -> l) outs) in
  let errors, cases = check t (List.map (fun (r, _, _, _) -> r) outs) (Option.get !checks) in
  let start_s = Util.median (List.map (fun (_, _, _, s) -> s) outs) in
  Util.log "serve: %d requests (%d first-seen) x %d rounds, tail = p%g over %d requests; set-up %.4f s inputs + %.4f s daemon start"
    n (Array.length t.targets) (List.length rounds) (100. *. q) nops inputs_s start_s;
  { Util.attempted = List.length rounds * n;
    failed = List.fold_left (fun a k -> a + n - k) 0 ok;
    errors; cases;
    self_test = (let r, _, _, _ = List.hd outs in self_test t (parse r));
    metrics =
      [ Util.metric "ops_per_s" "1/s"
          (Util.median (List.map2 (fun k (_, dt) -> float_of_int k /. dt) ok rounds));
        Util.metric "p50_ms" "ms" p50;
        Util.metric "tail_ms" "ms" tail;
        Util.metric "mem_peak_mb" "MB" (Util.median (List.map (fun (_, _, m, _) -> m) outs));
        Util.metric "setup_s" "s" (inputs_s +. start_s) ] }

(* Traced mode: one checked pass, then the layer probes over the targets,
   the request sequence itself on a fresh daemon, and work chains grown
   from the first STRICT targets. A pass's allocation is the daemon's own,
   from the totals its runtime prints at exit. *)
let traced ~seed =
  let t = setup ~seed () in
  let (first, _, _, _, _), _ = round t in
  let parsed = parse first in
  let errors, cases = check t [ first ] (Checks.start (snd (scan t parsed))) in
  let targets = Array.to_list t.targets in
  let strict = List.filter (fun c -> c.Layers.model = Comm_model.Strict) targets in
  let pass ~traced =
    let extra = if traced then [ "--trace"; Filename.concat t.dir "trace.json" ] else [] in
    let (resp, _, _, _, d), wall_s = round ~extra ~gc_stats:true t in
    let ok = ok_count (parse resp) in
    { Layers.wall_s; ops = Array.length resp; failed = Array.length resp - ok; alloc_mb = Daemon.allocated_mb d }
  in
  let probe =
    { Layers.cases = targets;
      jobs = Layers.file_jobs targets;
      chains = List.map (fun c -> Layers.work_chain c.Layers.inst) (List.filteri (fun i _ -> i < 4) strict);
      requests = Array.mapi (fun i (_, line) -> (line, i mod miss_every = 0)) t.reqs;
      dir = t.dir;
      pass }
  in
  let metrics, attempted, failed = Layers.run probe in
  { Util.attempted = attempted + Array.length first; failed = failed + Array.length first - ok_count parsed;
    errors; cases; self_test = self_test t parsed; metrics }
