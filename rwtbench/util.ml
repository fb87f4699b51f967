(* Clock, statistics, memory readings, scratch files and the result line
   shared by the three workloads. *)

open Rwt_util

let now = Rwt_obs.now
(* [Rwt_obs.now] reads CLOCK_MONOTONIC even while recording is off. *)

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* User plus system CPU time of the process, from getrusage. Inside a VM
   it leaves out the time the hypervisor gave to other guests (steal),
   which wall time counts. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_time f =
  let t0 = cpu_now () in
  let v = f () in
  (v, cpu_now () -. t0)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---- statistics ---- *)

(* [q]-quantile of a sample, linear interpolation between order statistics
   (the "inclusive" method). *)
let quantile q xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile 0.5 xs

(* The highest percentile of a fixed ladder that still leaves at least ten
   samples beyond it. The sample count of every workload is fixed by its
   design, so the chosen percentile never changes from run to run. *)
let tail_quantile n =
  List.fold_left
    (fun best q -> if float_of_int n *. (1.0 -. q) >= 10.0 then q else best)
    0.5 [ 0.5; 0.75; 0.8; 0.9; 0.95; 0.98; 0.99; 0.995; 0.999 ]

(* Per-operation medians over repeated rounds: [rounds] holds one latency
   array per round, all in the same operation order. *)
let per_op_medians rounds =
  match rounds with
  | [] -> [||]
  | first :: _ ->
    Array.init (Array.length first) (fun i -> median (List.map (fun r -> r.(i)) rounds))

(* p50 and tail (ms) of per-operation latencies given in seconds. *)
let latency_ms rounds =
  let ops = Array.to_list (per_op_medians rounds) in
  let q = tail_quantile (List.length ops) in
  (1e3 *. median ops, 1e3 *. quantile q ops, q, List.length ops)

(* ---- memory ---- *)

(* Peak resident set (VmHWM) of a process, in MB, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

let self_peak_rss_mb () = peak_rss_mb "self"

(* ---- scratch directory (relative to the checkout root) ---- *)

let work_root = "_rwtbench"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* [work_root]/[name], made if missing; a run starts from an empty
   [work_root]. Set-up samples write the same files into it again and
   again instead of deleting and making them anew: on the reference host,
   deleting and creating 240 small files cost from 8 to 85 ms of CPU time,
   changing from one minute to the next, while overwriting them cost 7 to
   12 ms. *)
let work_dir name =
  if not (Sys.file_exists work_root) then Unix.mkdir work_root 0o755;
  let d = Filename.concat work_root name in
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* ---- the result line ---- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What one run of a workload hands back: operations attempted and failed,
   check failures, the checked (model, instance, period) triples the
   self-test draws on, the failures of the workload's own self-test (a
   tampered answer its checks must reject), and the metrics. *)
type outcome = {
  attempted : int;
  failed : int;
  errors : string list;
  cases : (Rwt_workflow.Comm_model.t * Rwt_workflow.Instance.t * Rat.t) list;
  self_test : string list;
  metrics : metric list;
}

let result_line ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Json.Float v else Json.Null in
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.name, Json.Obj [ ("value", num m.value); ("unit", Json.String m.unit_) ]))
                metrics) ) ])

(* ---- host speed ---- *)

(* The reference host's CPU speed swings by up to 1.8x, in CPU time as
   well as wall time, in phases lasting from seconds to minutes: identical
   corpus passes took from 1.5 to 2.8 s of CPU time. The yardstick is
   fixed work on the standard library alone (products of 64-limb numbers,
   hash-table inserts, a list sort), allocating short-lived blocks as
   the analyses do. It runs under fixed GC settings, the runtime's
   defaults, so no change to the program's code or settings alters its
   cost; only the host does. *)
let yardstick () =
  let st = Random.State.make [| 7 |] in
  let acc = ref 0 in
  for _ = 1 to 30 do
    for _ = 1 to 15 do
      let num () = Array.init 64 (fun _ -> Random.State.int st 0xffffff) in
      let a = num () and b = num () in
      let c = Array.make 128 0 in
      Array.iteri (fun i x -> Array.iteri (fun j y -> c.(i + j) <- c.(i + j) + (x * y)) b) a;
      acc := !acc + c.(63)
    done;
    let h = Hashtbl.create 16 in
    for i = 1 to 10_000 do Hashtbl.replace h (i * 7919 land 8191) [ i ] done;
    let l = List.init 10_000 (fun i -> i * 7919 land 1023) in
    acc := !acc + Hashtbl.length h + List.hd (List.sort compare l)
  done;
  !acc

let yardstick_gc = { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 }

(* CPU seconds of one yardstick run *)
let yardstick_s () =
  let saved = Gc.get () in
  Gc.set yardstick_gc;
  Gc.compact ();
  let v, dt = cpu_time yardstick in
  ignore (Sys.opaque_identity v);
  Gc.set saved;
  dt

(* The yardstick's usual CPU time on the reference host. *)
let yardstick_ref = 0.13

(* [f ()]'s value, its CPU time in reference-host seconds, and the factor
   that converted it: the yardstick runs right before and right after [f],
   and [f]'s CPU time is scaled by [yardstick_ref] over their mean. [f]
   starts from a compacted heap. *)
let host_scaled f =
  let y0 = yardstick_s () in
  Gc.compact ();
  let v, dt = cpu_time f in
  let y1 = yardstick_s () in
  let k = yardstick_ref /. ((y0 +. y1) /. 2.0) in
  (v, dt *. k, k)

(* ---- timed rounds ---- *)

(* Set-up samples taken after every round. *)
let setup_reps = 4

(* Run whole rounds until they have taken [seconds] of wall time (at
   least two rounds). [setup] runs once before round 1, making the input
   of every round, and [setup_reps] more times after every round, so its
   samples spread over the run as the rounds do; the extra inputs are
   dropped. Set-up is in-process work, timed in CPU time and scaled to the
   reference host's speed as in {!host_scaled}. Every sample and every
   round starts from a compacted heap, so none pays for the garbage of
   what ran before it (the checks, another round). A round returns its
   value and its own timed duration, so work it does before or after the
   timed part (starting a daemon) stays out of the clock. [between] runs
   after every round, untimed, with the input and the first round's
   value. Returns the input, the rounds and the median set-up time. *)
let timed_rounds ~seconds ~setup ~between round =
  let setup_times = ref [] in
  (* [n] set-up samples in reference-host seconds, scaled by a yardstick
     run just before them *)
  let samples n =
    let k = yardstick_ref /. yardstick_s () in
    List.init n (fun _ ->
        Gc.compact ();
        let v, dt = cpu_time setup in
        setup_times := (dt *. k) :: !setup_times;
        v)
  in
  let input = List.hd (samples 1) in
  let rec go k spent acc =
    if k >= 2 && spent >= seconds then begin
      log "round times (s): %s" (String.concat " " (List.rev_map (fun (_, dt) -> Printf.sprintf "%.3f" dt) acc));
      log "set-up times (s): %s" (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !setup_times));
      List.rev acc
    end
    else begin
      Gc.compact ();
      let (v, dt), wall = time (fun () -> round input) in
      let acc = (v, dt) :: acc in
      between input (fst (List.nth acc (List.length acc - 1)));
      ignore (samples setup_reps);
      go (k + 1) (spent +. wall) acc
    end
  in
  let rounds = go 0 0.0 [] in
  (input, rounds, median !setup_times)

(* status and period of a daemon response line *)
let response_status line =
  match Json.of_string line with
  | Ok (Json.Obj kv) -> (
    match (List.assoc_opt "status" kv, List.assoc_opt "period" kv) with
    | Some (Json.String s), Some (Json.String p) -> (s, Some (Rat.of_string p))
    | Some (Json.String s), _ -> (s, None)
    | _ -> ("unparsed", None))
  | _ -> ("unparsed", None)
