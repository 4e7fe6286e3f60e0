package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed k-truss machinery (§VI-C): triangle support via DataFrame
  * self-joins and iterative removal of edges with support < k−2.
  */
object TrussDecomposition {

  /** Triangle support of every (canonical `src < dst`) edge. Edges in no
    * triangle are reported with support 0.
    */
  def edgeSupport(edges: DataFrame): DataFrame = {
    val e = edges.select(col("src").as("a"), col("dst").as("b")).distinct()
    // Triangles a<b<c: (a,b), (b,c), (a,c).
    val tri = e.as("e1")
      .join(e.as("e2"), col("e1.b") === col("e2.a"))
      .join(
        e.as("e3"),
        col("e3.a") === col("e1.a") && col("e3.b") === col("e2.b"),
      )
      .select(col("e1.a").as("a"), col("e1.b").as("b"), col("e2.b").as("c"))
    val perEdge = tri.select(col("a").as("src"), col("b").as("dst"))
      .union(tri.select(col("b").as("src"), col("c").as("dst")))
      .union(tri.select(col("a").as("src"), col("c").as("dst")))
      .groupBy("src", "dst").agg(count(lit(1)).as("support"))
    e.select(col("a").as("src"), col("b").as("dst"))
      .join(perEdge, Seq("src", "dst"), "left")
      .select(col("src"), col("dst"), coalesce(col("support"), lit(0L)).as("support"))
  }

  /** Surviving edges of the k-truss (every edge in ≥ k−2 triangles). */
  def kTrussEdges(edges: DataFrame, k: Int): DataFrame = {
    require(k >= 2, "k-truss requires k >= 2")
    var cur = edges.select("src", "dst").distinct().localCheckpoint(true)
    var size = cur.count()
    var done = size == 0
    while (!done) {
      val next = edgeSupport(cur)
        .filter(col("support") >= k - 2)
        .select("src", "dst")
        .localCheckpoint(true)
      val nextSize = next.count()
      done = nextSize == size || nextSize == 0
      cur = next
      size = nextSize
    }
    cur
  }
}
