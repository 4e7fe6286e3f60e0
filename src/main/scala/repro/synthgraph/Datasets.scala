package repro.synthgraph

import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import repro.synthgraph.SynthGraph._

/** Named `-lite` analogues of the paper's ten datasets (Table I) plus the
  * two extra HA-GT graphs of Table III (Orkut, Amazon). Sizes are scaled to
  * single-machine test budgets; the *relative* size ordering and the
  * homogeneous/heterogeneous split mirror the paper (DESIGN.md §3).
  */
object Datasets {

  // ---- homogeneous (Facebook, GitHub, Twitch, LiveJournal, Twitter) ------

  val homoSpecs: Map[String, HomoSpec] = Map(
    "facebook-lite" -> HomoSpec(nCommunities = 8, communitySize = 50,
      intraDeg = 18, interDeg = 2, seed = 101),
    "github-lite" -> HomoSpec(nCommunities = 30, communitySize = 50,
      intraDeg = 10, interDeg = 2, seed = 102),
    "twitch-lite" -> HomoSpec(nCommunities = 40, communitySize = 50,
      intraDeg = 20, interDeg = 3, seed = 103),
    "livejournal-lite" -> HomoSpec(nCommunities = 80, communitySize = 50,
      intraDeg = 12, interDeg = 2, seed = 104),
    "twitter-lite" -> HomoSpec(nCommunities = 120, communitySize = 60,
      intraDeg = 14, interDeg = 3, seed = 105),
    // Table III extras
    "orkut-lite" -> HomoSpec(nCommunities = 30, communitySize = 40,
      intraDeg = 14, interDeg = 4, noiseTagProb = 0.3, seed = 106),
    "amazon-lite" -> HomoSpec(nCommunities = 30, communitySize = 40,
      intraDeg = 12, interDeg = 2, seed = 107),
  )

  // ---- heterogeneous (DBLP, IMDB, DBpedia, Freebase, YAGO) ---------------

  val heteroSpecs: Map[String, HeteroSpec] = Map(
    "dblp-lite" -> HeteroSpec(targetType = "A", hubType = "P",
      nCommunities = 24, communitySize = 30, hubsPerCommunity = 80,
      decoTypes = Seq(("V", 40), ("T", 120)), seed = 201),
    "imdb-lite" -> HeteroSpec(targetType = "M", hubType = "A",
      nCommunities = 30, communitySize = 30, hubsPerCommunity = 80,
      decoTypes = Seq(("D", 60), ("G", 25)), seed = 202),
    "dbpedia-lite" -> HeteroSpec(targetType = "E", hubType = "R",
      nCommunities = 20, communitySize = 30, hubsPerCommunity = 90,
      decoTypes = Seq(("C", 50), ("L", 50), ("O", 30), ("S", 30)),
      hasText = false, numDims = 4, seed = 203),
    "freebase-lite" -> HeteroSpec(targetType = "E", hubType = "R",
      nCommunities = 24, communitySize = 30, hubsPerCommunity = 80,
      decoTypes = Seq(("C", 40), ("L", 40), ("O", 40), ("S", 40), ("U", 40), ("W", 40)),
      hasText = false, numDims = 4, seed = 204),
    "yago-lite" -> HeteroSpec(targetType = "E", hubType = "R",
      nCommunities = 24, communitySize = 30, hubsPerCommunity = 80,
      decoTypes = Seq(("C", 50), ("L", 50), ("O", 50)),
      hasText = false, numDims = 4, seed = 205),
  )

  val homoNames: Seq[String] =
    Seq("facebook-lite", "github-lite", "twitch-lite", "livejournal-lite", "twitter-lite")
  val heteroNames: Seq[String] =
    Seq("dblp-lite", "imdb-lite", "dbpedia-lite", "freebase-lite", "yago-lite")

  private val generated = mutable.Map.empty[(SparkSession, String), Generated]

  /** `name`'s graph, generated once per session on first use. */
  private def once(spark: SparkSession, name: String)(generate: => Generated): Generated =
    generated.synchronized(generated.getOrElseUpdate((spark, name), generate))

  def homo(spark: SparkSession, name: String): Generated =
    once(spark, name)(SynthGraph.homogeneous(spark, homoSpecs(name)))

  def hetero(spark: SparkSession, name: String): Generated =
    once(spark, name)(SynthGraph.heterogeneous(spark, heteroSpecs(name)))

  /** γ for a dataset: numerical-only graphs get γ=0 (no textual part). */
  def gammaFor(name: String): Double =
    if (heteroSpecs.get(name).exists(!_.hasText)) 0.0 else 0.5
}
