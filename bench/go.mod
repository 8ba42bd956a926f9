module sciera/bench

go 1.22

require sciera v0.0.0

replace sciera => ../
