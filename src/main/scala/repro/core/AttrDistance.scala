package repro.core

import org.apache.spark.sql.functions._
import repro.graph.AttributedGraph

/** The paper's composite attribute distance (§II-A).
  *
  * `f(u,v) = γ·f^t(u,v) + (1−γ)·f^#(u,v)` where
  *  - `f^t` is the Jaccard *distance* `1 − |A^t(u)∩A^t(v)| / |A^t(u)∪A^t(v)|`
  *    (the paper writes the similarity but uses it as a distance — see
  *    DESIGN.md §5), and `0` when both sets are empty;
  *  - `f^#` is the mean Manhattan distance over min-max normalized (`Z(·)`)
  *    numerical attributes, and `0` when the graph has no numerical dims.
  *
  * Distances are computed on the driver over collected, normalized
  * attributes; only the normalization stats are aggregated on Spark. Tests
  * cross-check against a Catalyst formulation and DuckDB SQL.
  */
object AttrDistance {

  /** Jaccard distance between two textual attribute sets. */
  def jaccard(a: Set[String], b: Set[String]): Double = {
    val union = (a ++ b).size
    if (union == 0) 0.0 else 1.0 - a.intersect(b).size.toDouble / union
  }

  /** Mean Manhattan distance over already-normalized numerical vectors. */
  def manhattan(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    if (a.isEmpty) 0.0
    else {
      var s = 0.0; var i = 0
      while (i < a.length) { s += math.abs(a(i) - b(i)); i += 1 }
      s / a.length
    }
  }

  /** Composite distance over normalized attributes. */
  def composite(
      aText: Set[String], aNum: Array[Double],
      bText: Set[String], bNum: Array[Double],
      gamma: Double,
  ): Double = gamma * jaccard(aText, bText) + (1 - gamma) * manhattan(aNum, bNum)

  /** δ(H) (Definition 4): the mean of `f` over the members other than `q`,
    * summed in ascending index order; NaN when no member besides `q`
    * remains. `f(i)` is local node `i`'s distance to `q`, and `f` covers
    * every member. Allocates nothing: Exact scores every search state with it.
    */
  def delta(f: Array[Double], members: scala.collection.BitSet, q: Int): Double = {
    var s = 0.0; var c = 0; var i = 0
    while (i < f.length) {
      if (i != q && members.contains(i)) { s += f(i); c += 1 }
      i += 1
    }
    if (c == 0) Double.NaN else s / c
  }

  /** Per-dimension (min, range) of the numerical attributes of a graph,
    * computed distributively. `range` is clamped to ≥ 1e-12 so `Z(·)` never
    * divides by zero on constant dimensions.
    */
  def numStats(g: AttributedGraph): (Array[Double], Array[Double]) = {
    val dims = g.nodes.select(max(size(col("num")))).collect()(0).get(0) match {
      case null       => 0
      case i: Integer => i.toInt
      case i: Int     => i
    }
    if (dims <= 0) (Array.empty, Array.empty)
    else {
      val rows = g.nodes
        .select(posexplode(col("num")).as(Seq("dim", "x")))
        .groupBy("dim")
        .agg(min("x").as("mn"), max("x").as("mx"))
        .collect()
      val mins = Array.fill(dims)(0.0)
      val rngs = Array.fill(dims)(1.0)
      rows.foreach { r =>
        val d = r.getInt(0)
        mins(d) = r.getDouble(1)
        rngs(d) = math.max(r.getDouble(2) - r.getDouble(1), 1e-12)
      }
      (mins, rngs)
    }
  }

  /** `Z(·)`: min-max normalize a numerical vector with the given stats. */
  def normalize(num: Array[Double], mins: Array[Double], rngs: Array[Double]): Array[Double] = {
    val out = new Array[Double](num.length)
    var i = 0
    while (i < num.length) { out(i) = (num(i) - mins(i)) / rngs(i); i += 1 }
    out
  }
}
