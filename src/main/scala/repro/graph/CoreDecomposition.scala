package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed k-core machinery (§IV-A): the classic core-decomposition view
  * "recursively remove nodes with degree < k" as an iterative DataFrame peel.
  * Tests assert it agrees with the driver-side `LocalGraph.coreness`.
  */
object CoreDecomposition {

  /** Edges (`src`, `dst`) of the k-core: those whose endpoints both survive
    * the peel. Iterative join-based peeling with per-round local checkpoints
    * to keep the plan from growing with the iteration count.
    */
  def kCoreEdges(edges: DataFrame, k: Int): DataFrame = {
    require(k >= 1, "k must be >= 1")
    var cur = edges.select("src", "dst").localCheckpoint(true)
    var size = cur.count()
    var done = size == 0
    while (!done) {
      val sym = cur.union(cur.select(col("dst").as("src"), col("src").as("dst")))
      val ok = sym.groupBy("src").agg(count(lit(1)).as("d")).filter(col("d") >= k)
        .select(col("src").as("id"))
      val next = cur
        .join(ok.withColumnRenamed("id", "src"), Seq("src"), "left_semi")
        .join(ok.withColumnRenamed("id", "dst"), Seq("dst"), "left_semi")
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
