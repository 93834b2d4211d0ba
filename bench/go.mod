module followscent/bench

go 1.24

require followscent v0.0.0

replace followscent => ../
