package org.apache.spark

/** The listener bus is private to Spark; the benchmark needs to wait for it
  * to drain before it reads job counts, so it reaches it from Spark's package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
