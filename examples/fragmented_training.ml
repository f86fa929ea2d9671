(* The paper's motivating scenario end to end: a multi-tenant scheduler
   fragments GPU allocations (figure 3); on the fragment our job received,
   compare data-parallel training iteration times with NCCL-style rings vs
   Blink's packed trees (figures 5 and 18).

   Run with: dune exec examples/fragmented_training.exe *)

module Scheduler = Blink_cluster.Scheduler
module Server = Blink_topology.Server
module Alloc = Blink_topology.Alloc
module Fabric = Blink_topology.Fabric
module Blink = Blink_core.Blink
module Ring = Blink_baselines.Ring
module Models = Blink_dnn.Models
module Training = Blink_dnn.Training

(* Pick a fragmented slice from a simulated cluster: a per-server piece of
   3-7 GPUs whose NVLink graph is connected (Blink's requirement). *)
let fragmented_allocation stats =
  let candidate =
    List.find_map
      (fun p ->
        List.find_map
          (fun (_, g) ->
            if g >= 3 && g <= 7 then begin
              (* The scheduler hands out GPU ids within the server too; model
                 that as the first [g] GPUs of a shuffled id list that stays
                 NVLink-connected. *)
              let gpus = Array.init g (fun i -> [| 1; 2; 3; 6; 7; 5; 4; 0 |].(i)) in
              Array.sort compare gpus;
              if Alloc.nvlink_connected Server.dgx1v (Array.to_list gpus) then
                Some gpus
              else None
            end
            else None)
          p.Scheduler.slices)
      stats.Scheduler.placements
  in
  match candidate with
  | Some gpus -> gpus
  | None -> [| 1; 4; 5; 6 |]

let () =
  let jobs = Scheduler.generate_trace ~seed:11 ~n_jobs:20_000 () in
  let stats = Scheduler.simulate ~servers:64 jobs in

  (* What the whole trace's fragments are capable of: one compiled plan
     per slice shape covers thousands of placements. *)
  Format.printf "per-server slices of multi-GPU jobs (one compiled plan per shape):@.";
  List.iter
    (fun p ->
      Format.printf "  %d GPUs: %5d slices, Blink AllReduce %.1f GB/s@."
        p.Scheduler.size p.Scheduler.count p.Scheduler.all_reduce_gbps)
    (Scheduler.profile_slices stats);
  Format.printf "@.";

  let gpus = fragmented_allocation stats in
  Format.printf "scheduler handed us GPUs {%s} of a DGX-1V@."
    (String.concat "," (List.map string_of_int (Array.to_list gpus)));

  let handle = Blink.create Server.dgx1v ~gpus in
  let fabric = Blink.fabric handle in
  let channels = Ring.nccl_channels Server.dgx1v ~gpus in
  Format.printf "NCCL channels: %d rings over %s; Blink packs %.1f GB/s of trees@.@."
    (Ring.n_rings channels)
    (match channels.Ring.cls with
    | Fabric.Pcie -> "PCIe (no NVLink ring exists!)"
    | Fabric.Nv -> "NVLink"
    | Fabric.Net -> "network")
    (Blink.all_reduce_rate handle);

  let nccl_backend =
    Blink_scenario.Scenario.ring_backend Server.dgx1v ~gpus fabric
  in
  (* The Blink side goes through the handle's compiled-plan cache: each
     gradient-bucket size compiles once, every later iteration replays. *)
  let blink_backend = Training.plan_backend handle in
  Format.printf "%-10s %14s %14s %12s %12s@." "model" "NCCL iter(ms)"
    "Blink iter(ms)" "time saved" "comm hidden";
  List.iter
    (fun model ->
      let nccl = Training.iteration model nccl_backend in
      let blink = Training.iteration model blink_backend in
      Format.printf "%-10s %14.1f %14.1f %11.1f%% %11.1f%%@." model.Models.name
        nccl.Training.iteration_ms blink.Training.iteration_ms
        (Training.speedup_percent ~baseline:nccl blink)
        (Training.comm_reduction_percent ~baseline:nccl blink))
    Models.all
