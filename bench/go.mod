module past/bench

go 1.23

require past v0.0.0

replace past => ../
