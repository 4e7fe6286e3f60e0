package repro.core

/** Small statistics toolbox (no external stats dependency is available). */
object Stats {

  def mean(xs: Array[Double]): Double =
    if (xs.isEmpty) 0.0 else xs.sum / xs.length

  /** Sample standard deviation (n−1 denominator); 0 for n < 2. */
  def stddev(xs: Array[Double]): Double = {
    if (xs.length < 2) return 0.0
    val m = mean(xs)
    math.sqrt(xs.map(x => (x - m) * (x - m)).sum / (xs.length - 1))
  }
}

/** Hoeffding-inequality population sizing (§V-A, Theorems 7–10). */
object Hoeffding {

  /** Theorem 9: minimum number of possible worlds needed so that `G_q`
    * contains all `m` high-existence-probability nodes with prob ≥ 1−β.
    */
  def minPossibleWorlds(m: Long, n: Long, eps: Double, beta: Double): Double = {
    require(eps > 0 && beta > 0 && beta < 1 && n > m && m >= 1,
      s"bad Hoeffding params m=$m n=$n eps=$eps beta=$beta")
    2.0 / (eps * eps) * math.log(m.toDouble * (n - m).toDouble / beta)
  }

  /** Theorem 10: minimum |G_q| for the k-core model (worst case: each world
    * contributes one new edge endpoint), capped at n. `minNodes` is the
    * minimum community size — `k+1` for k-core, `k` for k-truss (§VI-C),
    * `l` for size-bounded CS (§VI-B).
    */
  def minGqSize(n: Long, minNodes: Long, eps: Double, beta: Double): Long = {
    if (minNodes >= n) return n
    val t = math.ceil(minPossibleWorlds(minNodes, n, eps, beta)).toLong + 1
    math.min(t, n)
  }
}
