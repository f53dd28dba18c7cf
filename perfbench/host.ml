(* Host description recorded with every result, so figures taken on
   different machines can be compared as ratios. *)

let cores () = Domain.recommended_domain_count ()

(* A fixed integer loop (xorshift plus a scattered 32 KiB table update):
   its rate moves with the core's speed and cache, not with this
   repository's code. Median of five passes, in million iterations per
   second. *)
let calib_iters = 2_000_000

let calib_pass () =
  let table = Array.make 4096 0 in
  let x = ref 0x2545F491 in
  let t0 = Spans.now () in
  for i = 0 to calib_iters - 1 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land 4095 in
    table.(j) <- table.(j) + i
  done;
  let dt = Spans.now () -. t0 in
  ignore (Sys.opaque_identity table);
  float_of_int calib_iters /. dt /. 1e6

let calibration_score () = Util.Stats.median (List.init 5 (fun _ -> calib_pass ()))

(* The reference that throughput is normalised by: a fixed
   interpreter-like loop with unpredictable dispatch over a random
   opcode table, a 2 MiB table, a small [Hashtbl] and short-lived
   allocations. Like the fuzzer, and unlike the integer loop above, it
   slows down when neighbours on a shared host load the caches and
   memory. Measured in 10 s windows on a shared 2-core host, its rate
   and the fuzzer's moved together (correlation about 0.9, slope about
   1), where the integer loop caught half of the swing at most. One
   pass, in million iterations per second; the loop's code and sizes
   are part of the benchmark's definition and must not change. *)
let ref_iters = 300_000

let ref_code =
  let x = ref 88172645 in
  Array.init 4096 (fun _ ->
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      !x land 7)

(* One table per domain that runs the loop, made on first use. *)
let ref_tables = Array.init 8 (fun _ -> lazy (Array.make (256 * 1024) 0))

type ref_node = { a : int; b : int; next : ref_node option }

let reference_loop slot =
  let table = Lazy.force ref_tables.(slot) in
  let mask = Array.length table - 1 in
  let h = Hashtbl.create 4096 in
  let acc = ref 1 and x = ref 0x9E3779B9 and pc = ref 0 and nodes = ref None in
  for i = 0 to ref_iters - 1 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    (match ref_code.(!pc) with
    | 0 -> nodes := Some { a = !acc; b = i; next = !nodes }
    | 1 ->
      acc := !acc lxor (!x lsr 3);
      if i land 255 = 0 then nodes := None
    | 2 -> acc := !acc + table.(!x land mask)
    | 3 -> table.(!acc land mask) <- !x
    | 4 -> Hashtbl.replace h (!x land 8191) (Int64.of_int !acc)
    | 5 -> (
      match Hashtbl.find_opt h (!acc land 8191) with
      | Some v -> acc := !acc + Int64.to_int v
      | None -> ())
    | 6 -> ( match !nodes with Some n -> acc := !acc + n.a - n.b | None -> ())
    | _ -> acc := Hashtbl.hash (!acc, i));
    pc := (!pc + 1 + (!x land 3)) land 4095
  done;
  ignore (Sys.opaque_identity (!acc, !nodes))

(* One pass on [domains] domains at once (the calling one included), as
   a workload at jobs=[domains] loads the host; million iterations per
   second per domain. *)
let reference_pass ?(domains = 1) () =
  let domains = max 1 (min domains (Array.length ref_tables)) in
  List.iter (fun slot -> ignore (Lazy.force ref_tables.(slot))) (List.init domains Fun.id);
  let t0 = Spans.now () in
  let others = List.init (domains - 1) (fun k -> Domain.spawn (fun () -> reference_loop (k + 1))) in
  reference_loop 0;
  List.iter Domain.join others;
  let dt = Spans.now () -. t0 in
  float_of_int ref_iters /. dt /. 1e6

(* The reference rate that normalised throughput is scaled to, about
   what the loop gives on a quiet 2-core Xeon (Sapphire Rapids, KVM). *)
let ref_nominal_mops = 15.0

(* Process high-water resident set ([VmHWM]) in MiB. Falls back to the
   GC's top heap size where /proc is unavailable. *)
let peak_rss_mib () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> Some (float_of_int kb /. 1024.))
          | _ -> scan ()
          | exception End_of_file -> None
        in
        scan ())
  in
  match from_proc () with
  | Some mib -> mib
  | None | (exception Sys_error _) ->
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. (1024. *. 1024.)
