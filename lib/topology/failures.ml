open Apor_util
open Apor_sim

type profile = {
  mean_time_to_failure_s : float;
  mean_downtime_s : float;
  flaky_fraction : float;
  flaky_rate_multiplier : float;
}

let calm =
  {
    mean_time_to_failure_s = infinity;
    mean_downtime_s = 60.;
    flaky_fraction = 0.;
    flaky_rate_multiplier = 1.;
  }

let planetlab =
  {
    mean_time_to_failure_s = 6000.;
    mean_downtime_s = 150.;
    flaky_fraction = 0.08;
    flaky_rate_multiplier = 45.;
  }

type t = { flaky : bool array }

let install ~engine ~profile ~seed () =
  let network = Engine.network engine in
  let size = Network.size network in
  let rng = Rng.split (Rng.make ~seed) "failures" in
  let flaky = Array.make size false in
  for i = 0 to size - 1 do
    flaky.(i) <- Rng.bernoulli rng ~p:profile.flaky_fraction
  done;
  let base_rate =
    if Float.is_finite profile.mean_time_to_failure_s then
      1. /. profile.mean_time_to_failure_s
    else 0.
  in
  let node_rate i = if flaky.(i) then base_rate *. profile.flaky_rate_multiplier else base_rate in
  (* Each link runs an independent up/down renewal process; half the link's
     failure rate comes from each endpoint. *)
  let rec schedule_failure i j rate =
    if rate > 0. then begin
      let delay = Rng.exponential rng ~mean:(1. /. rate) in
      Engine.schedule engine ~delay (fun () ->
          Network.set_link_up network i j false;
          let downtime = Rng.exponential rng ~mean:profile.mean_downtime_s in
          Engine.schedule engine ~delay:downtime (fun () ->
              Network.set_link_up network i j true;
              schedule_failure i j rate))
    end
  in
  for i = 0 to size - 1 do
    for j = i + 1 to size - 1 do
      schedule_failure i j ((node_rate i +. node_rate j) /. 2.)
    done
  done;
  { flaky }

let flaky_nodes t =
  let acc = ref [] in
  Array.iteri (fun i f -> if f then acc := i :: !acc) t.flaky;
  List.rev !acc

let is_flaky t i = i >= 0 && i < Array.length t.flaky && t.flaky.(i)
