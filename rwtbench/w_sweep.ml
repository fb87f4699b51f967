(* sweep: single-parameter perturbation chains of STRICT instances, each
   chain evaluated through one Delta session — the design-space
   exploration path of Sensitivity, Optimize and Search. *)

open Rwt_util
open Rwt_workflow

(* The three chains, each [steps] single-parameter steps long:
   [4;5;7] coprime, one large SCC, solver-bound;
   [504;504;504] aligned, many small SCCs, patch-bound;
   [3;4;5] coprime, with steps (7 to 9) whose cold solve takes tens of
   seconds. The chains do not depend on the seed: single solves here range
   from milliseconds to tens of seconds, so random chains would make the
   work of a pass depend on the seed. The seed only orders the chains
   within a pass. *)
let vectors = [ [| 4; 5; 7 |]; [| 504; 504; 504 |]; [| 3; 4; 5 |] ]
let steps = 24

type step = {
  inst : Instance.t;
  dir : Checks.direction option;  (** [None] for the chain's base *)
  what : string;
}

(* Bandwidths are a dense matrix on the small platforms, so a step can
   change one ordered link; the 1512-processor platform is a star (p link
   bandwidths), so a step never copies a p×p matrix. *)
type links = Dense of Rat.t array array | Star of Rat.t array

type state = { work : Rat.t array; data : Rat.t array; speeds : Rat.t array; links : links }

let instance name mapping s =
  let platform =
    match s.links with
    | Dense bw -> Platform.create ~speeds:s.speeds ~bandwidths:bw
    | Star bw -> Platform.star ~speeds:s.speeds ~link_bw:bw
  in
  Instance.create_exn ~name ~pipeline:(Pipeline.create ~work:s.work ~data:s.data)
    ~platform ~mapping

(* Base: one dedicated processor per stage replica, random speeds and star
   link bandwidths drawn from a generator seeded by the vector. *)
let base repl =
  let n = Array.length repl and p = Array.fold_left ( + ) 0 repl in
  let r = Prng.create (Array.fold_left (fun acc mi -> (acc * 31) + mi) 17 repl) in
  let work = Array.init n (fun _ -> Rat.of_int (Prng.int_in r 5000 9000)) in
  let data = Array.init (n - 1) (fun _ -> Rat.of_int (Prng.int_in r 1000 3000)) in
  let speeds = Array.init p (fun _ -> Rat.of_int (Prng.int_in r 300 700)) in
  let star = Array.init p (fun _ -> Rat.of_int (Prng.int_in r 200 500)) in
  let links =
    if p <= 64 then Dense (Array.init p (fun u -> Array.init p (fun v -> Rat.min star.(u) star.(v))))
    else Star star
  in
  let next = ref 0 in
  let assignment = Array.map (fun mi -> Array.init mi (fun _ -> incr next; !next - 1)) repl in
  (Mapping.create_exn ~n_stages:n ~p assignment, { work; data; speeds; links })

let factors = [| Rat.of_ints 5 4; Rat.of_ints 3 4; Rat.of_ints 7 4; Rat.of_ints 9 4; Rat.of_ints 3 2 |]

(* Step [i] multiplies one parameter of step [i-1] — a speed, a link
   bandwidth, a stage's work or a file's size, in turn — by a factor != 1. *)
let chain repl =
  let mapping, s0 = base repl in
  let name = "sweep-" ^ String.concat "." (Array.to_list (Array.map string_of_int repl)) in
  let instance = instance name in
  let n = Array.length repl and p = Array.length s0.speeds in
  let r = Prng.create 77 in
  let scale a j f = let a = Array.copy a in a.(j) <- Rat.mul a.(j) f; a in
  let faster f = if Rat.compare f Rat.one > 0 then Checks.Not_higher else Checks.Not_lower in
  let larger f = if Rat.compare f Rat.one > 0 then Checks.Not_lower else Checks.Not_higher in
  let out = Array.make (steps + 1) { inst = instance mapping s0; dir = None; what = "base" } in
  let s = ref s0 in
  for i = 1 to steps do
    let f = factors.((i - 1) mod Array.length factors) and cur = !s in
    let next, dir, what =
      match (i - 1) mod 4 with
      | 0 ->
        let u = Prng.int r p in
        ({ cur with speeds = scale cur.speeds u f }, faster f, Printf.sprintf "speed P%d" u)
      | 1 -> (
        let u = Prng.int r p in
        match cur.links with
        | Dense bw ->
          let v = (u + 1 + Prng.int r (p - 1)) mod p in
          let bw = Array.copy bw in
          bw.(u) <- scale bw.(u) v f;
          ({ cur with links = Dense bw }, faster f, Printf.sprintf "link P%d-P%d" u v)
        | Star bw -> ({ cur with links = Star (scale bw u f) }, faster f, Printf.sprintf "link P%d" u))
      | 2 ->
        let j = Prng.int r n in
        ({ cur with work = scale cur.work j f }, larger f, Printf.sprintf "work S%d" j)
      | _ ->
        let j = Prng.int r (n - 1) in
        ({ cur with data = scale cur.data j f }, larger f, Printf.sprintf "data F%d" j)
    in
    s := next;
    out.(i) <- { inst = instance mapping next; dir = Some dir;
                 what = Printf.sprintf "%s x%s" what (Rat.to_string f) }
  done;
  out

type t = { chains : step array list }

let setup ~seed () =
  let chains = Array.of_list (List.map chain vectors) in
  Prng.shuffle (Prng.create seed) chains;
  { chains = Array.to_list chains }

let evaluations t = List.fold_left (fun a c -> a + Array.length c) 0 t.chains

(* One pass: every chain through a fresh session, so each pays its first,
   cold solve inside the timed region as every sweep does. Returns the
   periods and per-evaluation latencies in chain order; [None] marks a
   failed evaluation. *)
let round t =
  let periods = Array.make (evaluations t) None and lat = Array.make (evaluations t) 0.0 in
  let i = ref 0 in
  List.iter
    (fun steps ->
      let session = Rwt_core.Delta.create Comm_model.Strict in
      Array.iter
        (fun st ->
          let t0 = Util.cpu_now () in
          let p = Result.to_option (Rwt_core.Delta.period session st.inst) in
          lat.(!i) <- Util.cpu_now () -. t0;
          periods.(!i) <- p;
          incr i)
        steps)
    t.chains;
  (periods, lat)

(* Every step's period, and each step's direction against the step
   before. Returns the direction errors and the (model, instance, period)
   triples for {!Checks.start}. *)
let scan t first =
  let errors = ref [] and items = ref [] in
  let i = ref 0 in
  List.iter
    (fun steps ->
      Array.iteri
        (fun j st ->
          (match first.(!i) with
           | None -> ()
           | Some p -> (
             items := (Comm_model.Strict, st.inst, p) :: !items;
             match st.dir, (if j = 0 then None else first.(!i - 1)) with
             | Some dir, Some before -> (
               match Checks.direction dir ~before ~after:p with
               | Ok () -> ()
               | Error e ->
                 errors := Printf.sprintf "%s step %d (%s): %s" st.inst.Instance.name j st.what e :: !errors)
             | _ -> ()));
          incr i)
        steps)
    t.chains;
  (List.rev !errors, List.rev !items)

let check t rounds checks =
  let first = fst (List.hd rounds) in
  let errors, _ = scan t first in
  let repeats =
    List.concat
      (List.mapi
         (fun k (ps, _) ->
           if Array.for_all2 (Option.equal Rat.equal) first ps then []
           else [ Printf.sprintf "round %d differs from round 1" (k + 1) ])
         rounds)
  in
  let period_errors, cases = Checks.finish checks in
  (period_errors @ errors @ repeats, cases)

let failures ps = Array.fold_left (fun a p -> if Option.is_none p then a + 1 else a) 0 ps

let run ~seed ~seconds =
  (* peak memory before any check work, which runs between rounds *)
  let mem = ref nan and checks = ref None in
  let between t (first, _) =
    if Float.is_nan !mem then mem := Util.self_peak_rss_mb ();
    Checks.advance_in checks (fun () -> snd (scan t first))
  in
  let t, rounds, setup_s =
    Util.timed_rounds ~seconds ~setup:(setup ~seed) ~between (fun t ->
        let (ps, lat), dt, k = Util.host_scaled (fun () -> round t) in
        ((ps, Array.map (( *. ) k) lat), dt))
  in
  let outs = List.map fst rounds in
  let n = evaluations t in
  let p50, tail, q, nops = Util.latency_ms (List.map snd outs) in
  let errors, cases = check t outs (Option.get !checks) in
  Util.log "sweep: %d evaluations x %d rounds, tail = p%g over %d evaluations"
    n (List.length rounds) (100. *. q) nops;
  { Util.attempted = List.length rounds * n;
    failed = List.fold_left (fun a (ps, _) -> a + failures ps) 0 outs;
    errors; cases; self_test = [];
    metrics =
      [ Util.metric "ops_per_s" "1/s" (Util.median (List.map (fun (_, dt) -> float_of_int n /. dt) rounds));
        Util.metric "p50_ms" "ms" p50;
        Util.metric "tail_ms" "ms" tail;
        Util.metric "mem_peak_mb" "MB" !mem;
        Util.metric "setup_s" "s" setup_s ] }

(* Traced mode: one checked pass, then the layer probes over the chains
   themselves and their bases (the cold solve every sweep pays). *)
let traced ~seed =
  let t = setup ~seed () in
  let first = round t in
  let errors, cases = check t [ first ] (Checks.start (snd (scan t (fst first)))) in
  let dir = Util.work_dir "sweep-trace" in
  let bases = Layers.write_cases dir (List.map (fun c -> (Comm_model.Strict, c.(0).inst)) t.chains) in
  let probe =
    { Layers.cases = bases;
      jobs = Layers.file_jobs bases;
      chains = List.map (Array.map (fun st -> st.inst)) t.chains;
      requests = Layers.cold_hot_requests bases;
      dir;
      pass = (fun ~traced -> Layers.in_process ~traced (fun () -> let ps, _ = round t in (Array.length ps, failures ps))) }
  in
  let metrics, attempted, failed = Layers.run probe in
  { Util.attempted = attempted + evaluations t; failed = failed + failures (fst first); errors; cases;
    self_test = []; metrics }
