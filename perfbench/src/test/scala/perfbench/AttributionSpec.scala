package perfbench

import org.scalatest.funsuite.AnyFunSuite

class AttributionSpec extends AnyFunSuite {

  test("a job is attributed to the innermost repository frame") {
    val site = Seq(
      "org.apache.spark.sql.Dataset.localCheckpoint(Dataset.scala:812)",
      "repro.graph.PriorityBfs$.collectGq(PriorityBfs.scala:30)",
      "repro.core.Sea$.run(Sea.scala:80)",
      "perfbench.Workloads$.answer(Workloads.scala:90)",
    ).mkString("\n")
    assert(Attribution.layerOf(site).contains("graph.PriorityBfs"))
  }

  test("lambda frames and top-level files map to their file") {
    assert(Attribution.layerOf("repro.core.Sea$.$anonfun$run$1(Sea.scala:99)").contains("core.Sea"))
    assert(Attribution.layerOf("repro.Oracle$.check(Oracle.scala:12)").contains("Oracle"))
    assert(Attribution.layerOf("perfbench.Mirror$.collect(Checker.scala:53)").contains("perfbench.Checker"))
  }

  test("a call site with no repository frame is unattributed") {
    val aqe = "java.util.concurrent.CompletableFuture$AsyncSupply.run(CompletableFuture.java:1768)"
    assert(Attribution.layerOf(aqe).isEmpty)
    assert(Attribution.layerOf("").isEmpty)
  }
}
