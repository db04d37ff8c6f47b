include Driver.Make (Apor_deploy.Udp_runtime)

let attach ~udp = attach udp
