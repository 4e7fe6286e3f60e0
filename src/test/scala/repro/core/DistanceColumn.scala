package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.AttributedGraph

/** Test-scope oracle: the composite distance `f(·,q)` as a Catalyst
  * expression over every node row, so `AttrDistance`'s driver-side formula
  * can be cross-checked against an independent formulation and DuckDB SQL.
  */
object DistanceColumn {

  /** `(id, f)` for every node of `g`: the composite attribute distance to the
    * query node `q`, with the graph's normalization stats baked in as
    * literals.
    */
  def distanceToQuery(g: AttributedGraph, q: Long, gamma: Double): DataFrame = {
    val (mins, rngs) = g.numStats
    val qRow = g.nodes.filter(col("id") === q).select("text", "num").collect()
    require(qRow.nonEmpty, s"query node $q not in graph")
    val qText = Option(qRow(0).getSeq[String](0)).map(_.toSet).getOrElse(Set.empty[String])
    val qNum  = Option(qRow(0).getSeq[Double](1)).map(_.toArray).getOrElse(Array.empty[Double])
    val qNumZ = AttrDistance.normalize(qNum, mins, rngs)
    val textD = {
      val inter = size(array_intersect(array_distinct(col("text")), typedLit(qText.toSeq)))
      val uni   = size(array_union(array_distinct(col("text")), typedLit(qText.toSeq)))
      when(uni === 0, lit(0.0)).otherwise(lit(1.0) - inter.cast("double") / uni.cast("double"))
    }
    val numD =
      if (qNumZ.isEmpty) lit(0.0)
      else {
        // Z-normalize the row's vector, then mean |z_u - z_q|.
        val z = zip_with(
          zip_with(col("num"), typedLit(mins.toSeq), (x, mn) => x - mn),
          typedLit(rngs.toSeq),
          (x, rg) => x / rg,
        )
        val diffs = zip_with(z, typedLit(qNumZ.toSeq), (a, b) => abs(a - b))
        aggregate(diffs, lit(0.0), (acc, x) => acc + x) / lit(qNumZ.length.toDouble)
      }
    g.nodes.select(col("id"), (lit(gamma) * textD + lit(1.0 - gamma) * numD).as("f"))
  }
}
